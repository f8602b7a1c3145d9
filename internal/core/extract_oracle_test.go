package core

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"scouts/internal/cloudsim"
	"scouts/internal/faults"
	"scouts/internal/topology"
)

// Extract as it read while every extractor ran FindAllString over a text
// joined per call, candidates were deduplicated through a map made per call
// and topology.Ancestors built a slice per component. Kept verbatim as the
// reference the prefiltered, pooled Extract is compared against; so is the
// growing All.

func (fb *FeatureBuilder) oldExtract(title, body string, mentioned []string) Extraction {
	ex := Extraction{ByType: map[topology.ComponentType][]string{}}
	for _, rule := range fb.cfg.Excludes {
		switch rule.Field {
		case "TITLE":
			if rule.Re.MatchString(title) {
				ex.Excluded = true
			}
		case "BODY":
			if rule.Re.MatchString(body) {
				ex.Excluded = true
			}
		}
	}

	text := title + "\n" + body
	seen := map[string]bool{}
	consider := func(name string) {
		if seen[name] {
			return
		}
		seen[name] = true
		comp, ok := fb.topo.Lookup(name)
		if !ok {
			return
		}
		// Component-level exclusion rules (e.g. decommissioned switches).
		for _, rule := range fb.cfg.Excludes {
			if rule.Field == string(comp.Type) && rule.Re.MatchString(name) {
				return
			}
		}
		ex.ByType[comp.Type] = append(ex.ByType[comp.Type], name)
	}
	for _, typ := range typeOrder {
		re, ok := fb.cfg.Extractors[typ]
		if !ok {
			continue
		}
		for _, m := range re.FindAllString(text, -1) {
			consider(m)
		}
	}
	// Structured mentions (the incident-management system also carries a
	// component list; the deployed Scout uses both).
	for _, m := range mentioned {
		consider(m)
	}

	// Dependency expansion through the topology abstraction: a VM implies
	// its host server; a server implies its ToR; everything implies its
	// cluster and DC (§5.1).
	for _, vm := range ex.ByType[topology.TypeVM] {
		if srv := fb.topo.ServerOfVM(vm); srv != "" {
			consider(srv)
		}
	}
	for _, srv := range ex.ByType[topology.TypeServer] {
		if tor := fb.topo.ToROfServer(srv); tor != "" {
			consider(tor)
		}
	}
	for _, typ := range typeOrder {
		for _, c := range ex.ByType[typ] {
			for _, anc := range fb.topo.Ancestors(c) {
				consider(anc)
			}
		}
	}
	for _, typ := range typeOrder {
		sort.Strings(ex.ByType[typ])
	}

	ex.Devices = append(ex.Devices, ex.ByType[topology.TypeVM]...)
	ex.Devices = append(ex.Devices, ex.ByType[topology.TypeServer]...)
	ex.Devices = append(ex.Devices, ex.ByType[topology.TypeSwitch]...)
	hasScope := len(ex.ByType[topology.TypeCluster]) > 0 || len(ex.ByType[topology.TypeDC]) > 0
	ex.Broad = len(ex.Devices) == 0 && hasScope
	ex.Empty = len(ex.Devices) == 0 && !hasScope
	return ex
}

func oldAll(e Extraction) []string {
	var out []string
	for _, typ := range typeOrder {
		out = append(out, e.ByType[typ]...)
	}
	return out
}

// extractConfigs are the configurations the comparison runs under: the
// PhyNet one; one with component-level rules that bite on live names and
// only three extractors (a type without an extractor is still reached
// through mentions and expansion); and one whose extractors the prefilter
// does not take — case-folded, able to match nothing, too wide a first set.
var extractConfigs = map[string]string{
	"phynet": DefaultPhyNetConfig,
	"rules": `TEAM PhyNet;
let vm = <\bvm\d+\.c\d+\.dc\d+\b>;
let switch = <\b(?:tor|agg)\d+\.c\d+\.dc\d+\b>;
let dc = <\bdc\d+\b>;
EXCLUDE switch = <agg.*>;
EXCLUDE server = <srv[12]\.c1\..*>;
EXCLUDE cluster = <c2\.dc1>;
EXCLUDE BODY = <drill>;`,
	"fallbacks": `TEAM PhyNet;
let vm = <(?i)vm\d+\.c\d+\.dc\d+>;
let server = <(?:srv\d+\.c\d+\.dc\d+)?>;
let switch = <\b[a-z]+\d+\.c\d+\.dc\d+\b>;
let cluster = <\bc\d+\.dc\d+\b>;
EXCLUDE TITLE = <planned maintenance>;`,
}

// TestExtractMatchesOldPath: the whole Extraction — every list in its
// order, Devices, the flags, nil against empty — equals the old path's over
// every incident of a 20-day world (full and initial component lists) and
// over hand cases, under each configuration, with the pooled scratch dirty
// from the incident before.
func TestExtractMatchesOldPath(t *testing.T) {
	gen := cloudsim.New(cloudsim.Params{Seed: 9, Days: 20, IncidentsPerDay: 10})
	log := gen.Generate()
	topo := gen.Topology()
	vm := topo.Names(topology.TypeVM)[0]
	srv := topo.ServerOfVM(vm)
	tor := topo.ToROfServer(srv)
	type hand struct {
		title, body string
		mentioned   []string
	}
	hands := []hand{
		{"", "", nil},
		{"nothing to see", "no component named here", nil},
		{"planned maintenance on " + tor, "drill in c1.dc1", nil},
		{"vm only", vm + " unreachable", nil},                                            // VM → server → ToR → cluster → DC
		{"twice", vm + " and again " + vm + ", host " + srv, []string{vm, srv, tor, vm}}, // duplicates between text and mentioned
		{"mention only", "see the list", []string{tor, "agg1.c1.dc1", "nosuch9.c9.dc9", ""}},
		{"scopes", "clusters c1.dc1, c2.dc1 and c3.dc2 in dc1 and dc2; dc3dc4 is not one", nil},
		{"glued", "x" + vm + " " + vm + "x tor1.c1.dc1agg2.c1.dc1 é" + vm + " VM1.C1.DC1", nil},
		{"decommissioned", "decom7.c1.dc1 was handed over; agg2.c1.dc1, srv1.c1.dc1 and srv2.c1.dc1 remain", []string{"c2.dc1"}},
		{"bytes", "\xff" + tor + "\xc3 \xe2\x82" + vm, nil},
		{"every switch of a cluster", strings.Join(topo.DescendantsOfType("c1.dc1", topology.TypeSwitch), " "), nil},
		{"more names than the scan bound", strings.Join(topo.Names(topology.TypeVM), ", ") + " " + strings.Join(topo.Names(topology.TypeVM), ";"), nil},
	}
	for name, src := range extractConfigs {
		cfg, err := ParseConfig(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fb := NewFeatureBuilder(cfg, topo, gen.Telemetry())
		prefiltered := 0
		for _, f := range fb.finders {
			if f != nil && f.at0 != nil {
				prefiltered++
			}
		}
		if want := map[string]int{"phynet": 5, "rules": 3, "fallbacks": 1}[name]; prefiltered != want {
			t.Fatalf("%s: %d extractors take the prefilter, want %d", name, prefiltered, want)
		}
		compared, nonEmpty, excluded := 0, 0, 0
		check := func(what, title, body string, mentioned []string) {
			t.Helper()
			want := fb.oldExtract(title, body, mentioned)
			got := fb.Extract(title, body, mentioned)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s:\nExtract %+v\nold     %+v", name, what, got, want)
			}
			if all, oldAll := got.All(), oldAll(want); !reflect.DeepEqual(all, oldAll) {
				t.Fatalf("%s: %s: All() = %v, old %v", name, what, all, oldAll)
			}
			for typ, list := range got.ByType {
				if cap(list) != len(list) {
					t.Fatalf("%s: %s: the %s list is not clipped: an append would run into its neighbour", name, what, typ)
				}
			}
			if cap(got.Devices) != len(got.Devices) {
				t.Fatalf("%s: %s: Devices is not clipped", name, what)
			}
			compared++
			if !got.Empty {
				nonEmpty++
			}
			if got.Excluded {
				excluded++
			}
		}
		for _, in := range log.Incidents {
			check("incident "+in.ID, in.Title, in.Body, in.Components)
			check("incident "+in.ID+" (initial components)", in.Title, in.Body, in.InitialComponents)
		}
		for _, h := range hands {
			check("hand case "+h.title, h.title, h.body, h.mentioned)
		}
		if compared < 350 || nonEmpty < 300 || excluded == 0 {
			t.Fatalf("%s: compared %d extractions, %d non-empty, %d excluded", name, compared, nonEmpty, excluded)
		}
	}
}

// TestExtractionOwnsItsNames: nothing in a returned Extraction points into
// the incident text or the pooled scratch — a FeatureCache keeps it, and the
// next Extract reuses the scratch.
func TestExtractionOwnsItsNames(t *testing.T) {
	fb, gen := newBuilder(t)
	topo := gen.Topology()
	first := fb.Extract("t", "tor1.c1.dc1 and vm1.c1.dc1", nil)
	snapshot := append([]string(nil), first.All()...)
	for i := 0; i < 4; i++ {
		fb.Extract("t", "tor2.c2.dc2, srv3.c2.dc2, vm9.c3.dc1, c4.dc2", nil)
	}
	if got := first.All(); !reflect.DeepEqual(got, snapshot) {
		t.Fatalf("a later Extract changed an earlier Extraction: %v, was %v", got, snapshot)
	}
	for _, name := range first.All() {
		comp, ok := topo.Lookup(name)
		if !ok {
			t.Fatalf("%q is not a component", name)
		}
		if strings.Compare(name, comp.Name) != 0 || !sameString(name, comp.Name) {
			t.Fatalf("%q is not the topology's own string: it may point into the incident text", name)
		}
	}
}

// TestExtractAllocations pins Extract's steady-state allocations: the joined
// text, the Extraction's map (two objects) and the one array its lists are
// carved from — and All's single slice.
func TestExtractAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	gen := cloudsim.New(cloudsim.Params{Seed: 1, Days: 10, IncidentsPerDay: 5})
	cfg, err := ParseConfig(DefaultPhyNetConfig)
	if err != nil {
		t.Fatal(err)
	}
	fb := NewFeatureBuilder(cfg, gen.Topology(), faults.NewBreaker(gen.Telemetry(), faults.BreakerParams{}))
	const budget = 4
	for _, tc := range []struct{ name, title, body string }{
		{"one device", "Packet corruption alarms on tor1.c1.dc1", "FCS errors above threshold"},
		{"a VM and its chain", "vm3.c2.dc1 unreachable", "VM vm3.c2.dc1 on srv2.c2.dc1 cannot reach tor1.c2.dc1 in cluster c2.dc1"},
		{"two clusters", "clusters c1.dc1 and c3.dc2 are degraded", "canary failures across dc1 and dc2"},
	} {
		mentioned := []string{"tor1.c1.dc1"}
		var ex Extraction
		if allocs := testing.AllocsPerRun(50, func() { ex = fb.Extract(tc.title, tc.body, mentioned) }); allocs > budget {
			t.Errorf("%s: Extract allocates %v times per call in steady state, budget %d", tc.name, allocs, budget)
		}
		if allocs := testing.AllocsPerRun(50, func() { _ = ex.All() }); allocs > 1 {
			t.Errorf("%s: All allocates %v times per call", tc.name, allocs)
		}
	}
}

// sameString reports whether two equal strings share their bytes.
func sameString(a, b string) bool {
	return len(a) == len(b) && (len(a) == 0 || unsafe.StringData(a) == unsafe.StringData(b))
}
