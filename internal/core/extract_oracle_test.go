package core

import (
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"scouts/internal/cloudsim"
	"scouts/internal/topology"
)

// Extract as it read while every extractor ran FindAllString over a text
// joined per call, candidates were deduplicated through a map made per call
// and topology.Ancestors built a slice per component. Kept verbatim as the
// reference the prefiltered, pooled Extract is compared against — save that
// its per-type map, once filled, is laid out as an Extraction holds its runs.
// It is the differential reference of FuzzParseConfig and FuzzFindAll, which
// run Extract on inputs no golden can enumerate.

func (fb *FeatureBuilder) oldExtract(title, body string, mentioned []string) Extraction {
	var ex Extraction
	byType := map[topology.ComponentType][]string{}
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
		byType[comp.Type] = append(byType[comp.Type], name)
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
	for _, vm := range byType[topology.TypeVM] {
		if srv := fb.topo.ServerOfVM(vm); srv != "" {
			consider(srv)
		}
	}
	for _, srv := range byType[topology.TypeServer] {
		if tor := fb.topo.ToROfServer(srv); tor != "" {
			consider(tor)
		}
	}
	for _, typ := range typeOrder {
		for _, c := range byType[typ] {
			for _, anc := range fb.topo.Ancestors(c) {
				consider(anc)
			}
		}
	}
	for _, typ := range typeOrder {
		sort.Strings(byType[typ])
	}

	ex.Devices = append(ex.Devices, byType[topology.TypeVM]...)
	ex.Devices = append(ex.Devices, byType[topology.TypeServer]...)
	ex.Devices = append(ex.Devices, byType[topology.TypeSwitch]...)
	hasScope := len(byType[topology.TypeCluster]) > 0 || len(byType[topology.TypeDC]) > 0
	for k, typ := range typeOrder {
		ex.names = append(ex.names, byType[typ]...)
		ex.ends[k] = len(ex.names)
	}
	ex.Broad = len(ex.Devices) == 0 && hasScope
	ex.Empty = len(ex.Devices) == 0 && !hasScope
	return ex
}

// checkExtract compares Extract with oldExtract for one title and body —
// the whole Extraction — and requires the result clipped where it must be.
func checkExtract(t testing.TB, fb *FeatureBuilder, title, body string, mentioned []string) {
	t.Helper()
	got, want := fb.Extract(title, body, mentioned), fb.oldExtract(title, body, mentioned)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("over %q + %q:\nExtract %+v\nold     %+v", title, body, got, want)
	}
	if cap(got.names) != len(got.names) || cap(got.Devices) != len(got.Devices) {
		t.Fatalf("over %q + %q: the component array is not clipped", title, body)
	}
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
			var lists []string
			for _, typ := range typeOrder {
				lists = append(lists, got.OfType(typ)...)
			}
			if all := got.All(); !reflect.DeepEqual(all, lists) {
				t.Fatalf("%s: %s: All() = %v, the lists in type order %v", name, what, all, lists)
			}
			for _, typ := range typeOrder {
				if list := got.OfType(typ); cap(list) != len(list) {
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
// the incident text, and no later Extract writes what it holds — a
// FeatureCache keeps it, and the next Extract reuses the scratch, whose
// block the Extraction's array was cut from.
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

// TestExtractConcurrentBlocks: goroutines extracting at once, each through
// the pooled scratch of the moment and across many name blocks, keep
// extractions that still equal the old path's once all are done — no region
// of a block is handed out twice — and, under -race, no two goroutines
// write one region.
func TestExtractConcurrentBlocks(t *testing.T) {
	gen := cloudsim.New(cloudsim.Params{Seed: 9, Days: 20, IncidentsPerDay: 10})
	log := gen.Generate()
	cfg, err := ParseConfig(DefaultPhyNetConfig)
	if err != nil {
		t.Fatal(err)
	}
	fb := NewFeatureBuilder(cfg, gen.Topology(), gen.Telemetry())
	const goroutines = 8
	got := make([][]Extraction, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, in := range log.Incidents {
				got[g] = append(got[g], fb.Extract(in.Title, in.Body, in.Components))
			}
		}(g)
	}
	wg.Wait()
	names := 0
	for i, in := range log.Incidents {
		want := fb.oldExtract(in.Title, in.Body, in.Components)
		for g := range got {
			if !reflect.DeepEqual(got[g][i], want) {
				t.Fatalf("goroutine %d, incident %s:\nExtract %+v\nold     %+v", g, in.ID, got[g][i], want)
			}
		}
		names += goroutines * len(want.names)
	}
	if names < 4*nameBlock {
		t.Fatalf("only %d names extracted: the blocks did not roll over", names)
	}
}

// sameString reports whether two equal strings share their bytes.
func sameString(a, b string) bool {
	return len(a) == len(b) && (len(a) == 0 || unsafe.StringData(a) == unsafe.StringData(b))
}
