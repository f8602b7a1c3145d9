package core

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"scouts/internal/cloudsim"
	"scouts/internal/topology"
)

func TestParseDefaultPhyNetConfig(t *testing.T) {
	cfg, err := ParseConfig(DefaultPhyNetConfig)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Team != "PhyNet" {
		t.Fatalf("team = %q", cfg.Team)
	}
	if cfg.LookbackHours != 2 {
		t.Fatalf("lookback = %v", cfg.LookbackHours)
	}
	if len(cfg.Extractors) != 5 {
		t.Fatalf("extractors = %d", len(cfg.Extractors))
	}
	if len(cfg.Monitoring) != 12 {
		t.Fatalf("monitoring refs = %d", len(cfg.Monitoring))
	}
	if len(cfg.Excludes) != 2 {
		t.Fatalf("excludes = %d", len(cfg.Excludes))
	}
	if cfg.ClassOverride("linkdrop") != "drops" || cfg.ClassOverride("switchdrop") != "drops" {
		t.Fatal("class overrides not parsed")
	}
	if !cfg.UsesDataset("pingmesh") || cfg.UsesDataset("bogus") {
		t.Fatal("UsesDataset wrong")
	}
	// Extractors match the naming scheme.
	if !cfg.Extractors[topology.TypeVM].MatchString("vm3.c10.dc3") {
		t.Fatal("vm regex broken")
	}
	if !cfg.Extractors[topology.TypeSwitch].MatchString("tor2.c1.dc1") {
		t.Fatal("switch regex broken")
	}
	if cfg.Extractors[topology.TypeSwitch].MatchString("srv2.c1.dc1") {
		t.Fatal("switch regex over-matches")
	}
}

func TestParseConfigErrors(t *testing.T) {
	cases := map[string]string{
		"missing team":   "let vm = <vm\\d+>;",
		"no extractors":  "TEAM X;",
		"bad type":       "TEAM X;\nlet widget = <w\\d+>;",
		"bad regex":      "TEAM X;\nlet vm = <[unclosed>;",
		"bad lookback":   "TEAM X;\nLOOKBACK banana;\nlet vm = <vm\\d+>;",
		"bad statement":  "TEAM X;\nFROBNICATE;\nlet vm = <vm\\d+>;",
		"bad exclude":    "TEAM X;\nlet vm = <vm\\d+>;\nEXCLUDE widget = <x>;",
		"bad monitoring": "TEAM X;\nlet vm = <vm\\d+>;\nMONITORING m = NOT_A_CALL(x);",
		"missing equals": "TEAM X;\nlet vm <vm>;",
	}
	for name, src := range cases {
		if _, err := ParseConfig(src); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

func TestParseConfigComments(t *testing.T) {
	cfg, err := ParseConfig("# comment\nTEAM T;\n\nlet vm = <vm\\d+>;\nNARROW_DEVICES 3;")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MaxDevicesNarrow != 3 {
		t.Fatalf("narrow = %d", cfg.MaxDevicesNarrow)
	}
}

func TestUsesDatasetDefaultsToAll(t *testing.T) {
	cfg, err := ParseConfig("TEAM T;\nlet vm = <vm\\d+>;")
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.UsesDataset("anything") {
		t.Fatal("empty monitoring list should select every dataset")
	}
}

func TestConfigRegexDelimiters(t *testing.T) {
	// Values work with and without <...> delimiters.
	cfg, err := ParseConfig("TEAM T;\nlet vm = vm\\d+;\nEXCLUDE TITLE = <maint.*>;")
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Extractors[topology.TypeVM].MatchString("vm7") {
		t.Fatal("undelimited regex broken")
	}
	if !strings.Contains(cfg.Excludes[0].Re.String(), "maint") {
		t.Fatal("exclude regex lost")
	}
}

// TestStorageConfigsParse: two FuzzParseConfig seeds are the Storage
// team's configurations, storage_starter being the starter a second Scout
// is built from. The fuzz target returns early on an input the parser
// refuses, so a parser change that turned them away would pass it
// silently; here both must parse.
func TestStorageConfigsParse(t *testing.T) {
	for _, name := range []string{"storage_scout", "storage_starter"} {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzParseConfig", name))
		if err != nil {
			t.Fatal(err)
		}
		_, value, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		src, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(value, "string("), ")"))
		if err != nil {
			t.Fatalf("%s: not a one-value string corpus file: %v", name, err)
		}
		if cfg, err := ParseConfig(src); err != nil || cfg.Team != "Storage" {
			t.Errorf("%s: ParseConfig = %v, %v; want the Storage team's configuration", name, cfg, err)
		}
	}
}

// FuzzParseConfig: the configuration is the operator's file (and, once a
// daemon takes -config, a boundary). ParseConfig never panics, and whatever
// it accepts builds a FeatureBuilder whose extractors run: its patterns go
// through the finder's analysis and two derived compilations, and extract
// what the old path (oldExtract) does, clipped — the committed
// line_break_extractors input anchors its patterns on the line break
// between title and body.
func FuzzParseConfig(f *testing.F) {
	f.Add(DefaultPhyNetConfig) // the rest of the corpus is testdata/fuzz/FuzzParseConfig
	gen := cloudsim.New(cloudsim.Params{Seed: 1, Days: 2, IncidentsPerDay: 2})
	topo, source := gen.Topology(), gen.Telemetry()
	f.Fuzz(func(t *testing.T, src string) {
		cfg, err := ParseConfig(src)
		if err != nil {
			return
		}
		if cfg.Team == "" || len(cfg.Extractors) == 0 || cfg.LookbackHours <= 0 || cfg.MaxDevicesNarrow < 1 {
			t.Fatalf("accepted an incomplete configuration: %+v", cfg)
		}
		fb := NewFeatureBuilder(cfg, topo, source)
		for k, typ := range typeOrder {
			if (fb.finders[k] != nil) != (cfg.Extractors[typ] != nil) {
				t.Fatalf("extractor %s: finder %v", typ, fb.finders[k])
			}
		}
		title, body := "vm1.c1.dc1 unreachable é\xff", "tor1.c1.dc1 in c1.dc1, dc1; planned maintenance"
		checkExtract(t, fb, title, body, []string{"srv1.c1.dc1"})
		// Names on each side of the line break, each on a line of its own.
		checkExtract(t, fb, "planned work on tor1.c1.dc1", "dc1\nc1.dc1\n vm1.c1.dc1 ", nil)
	})
}
