package topology

import (
	"strings"
	"testing"
)

func build(t *testing.T) *Topology {
	t.Helper()
	return Build(Params{DCs: 2, ClustersPerDC: 2, ToRsPerCluster: 2, AggsPerCluster: 1, ServersPerToR: 2, VMsPerServer: 2})
}

func TestBuildCounts(t *testing.T) {
	topo := build(t)
	if got := len(topo.Names(TypeDC)); got != 2 {
		t.Fatalf("DCs = %d", got)
	}
	if got := len(topo.Names(TypeCluster)); got != 4 {
		t.Fatalf("clusters = %d", got)
	}
	// 2 ToRs + 1 agg per cluster.
	if got := len(topo.Names(TypeSwitch)); got != 12 {
		t.Fatalf("switches = %d", got)
	}
	if got := len(topo.Names(TypeServer)); got != 16 {
		t.Fatalf("servers = %d", got)
	}
	if got := len(topo.Names(TypeVM)); got != 32 {
		t.Fatalf("VMs = %d", got)
	}
	if topo.Len() != 2+4+12+16+32 {
		t.Fatalf("total = %d", topo.Len())
	}
}

func TestNamingScheme(t *testing.T) {
	topo := build(t)
	c, ok := topo.Lookup("vm1.c1.dc1")
	if !ok || c.Type != TypeVM {
		t.Fatalf("vm1.c1.dc1 missing: %+v", c)
	}
	if !strings.HasPrefix(c.Parent, "srv") {
		t.Fatalf("VM parent should be a server, got %q", c.Parent)
	}
	if _, ok := topo.Lookup("tor2.c2.dc2"); !ok {
		t.Fatal("tor2.c2.dc2 missing")
	}
	if _, ok := topo.Lookup("agg1.c1.dc1"); !ok {
		t.Fatal("agg1.c1.dc1 missing")
	}
}

func TestHierarchyWalks(t *testing.T) {
	topo := build(t)
	srv := topo.ServerOfVM("vm1.c1.dc1")
	if srv == "" {
		t.Fatal("no server for vm1.c1.dc1")
	}
	tor := topo.ToROfServer(srv)
	if !strings.HasPrefix(tor, "tor") {
		t.Fatalf("server parent %q not a ToR", tor)
	}
	if got := topo.ClusterOf("vm1.c1.dc1"); got != "c1.dc1" {
		t.Fatalf("ClusterOf = %q", got)
	}
	if got := topo.ClusterOf("dc1"); got != "" {
		t.Fatalf("ClusterOf(dc) = %q", got)
	}
	anc := topo.Ancestors("vm1.c1.dc1")
	// server, tor, cluster, dc
	if len(anc) != 4 || anc[len(anc)-1] != "dc1" {
		t.Fatalf("ancestors = %v", anc)
	}
}

func TestExpandIncludesDependencies(t *testing.T) {
	topo := build(t)
	if err := topo.AddDependency("vm1.c1.dc1", "c2.dc2"); err != nil {
		t.Fatal(err)
	}
	exp := topo.Expand("vm1.c1.dc1")
	want := map[string]bool{"vm1.c1.dc1": true, "c2.dc2": true, "dc2": true, "c1.dc1": true, "dc1": true}
	got := map[string]bool{}
	for _, n := range exp {
		got[n] = true
	}
	for n := range want {
		if !got[n] {
			t.Fatalf("Expand missing %q: %v", n, exp)
		}
	}
	// No duplicates.
	if len(got) != len(exp) {
		t.Fatalf("Expand returned duplicates: %v", exp)
	}
}

func TestExpandUnknown(t *testing.T) {
	topo := build(t)
	if exp := topo.Expand("nonexistent"); exp != nil {
		t.Fatalf("unknown component should expand to nil, got %v", exp)
	}
}

func TestAddDependencyValidation(t *testing.T) {
	topo := build(t)
	if err := topo.AddDependency("nope", "dc1"); err == nil {
		t.Fatal("unknown source should error")
	}
	if err := topo.AddDependency("dc1", "nope"); err == nil {
		t.Fatal("unknown target should error")
	}
}

func TestDescendants(t *testing.T) {
	topo := build(t)
	servers := topo.DescendantsOfType("c1.dc1", TypeServer)
	if len(servers) != 4 {
		t.Fatalf("servers under c1.dc1 = %d", len(servers))
	}
	switches := topo.DescendantsOfType("c1.dc1", TypeSwitch)
	if len(switches) != 3 {
		t.Fatalf("switches under c1.dc1 = %d", len(switches))
	}
	all := topo.Descendants("dc1")
	// dc1 has 2 clusters * (3 switches + 4 servers + 8 VMs) + 2 clusters.
	if len(all) != 2+2*(3+4+8) {
		t.Fatalf("descendants of dc1 = %d", len(all))
	}
}

func TestChildrenSorted(t *testing.T) {
	topo := build(t)
	ch := topo.Children("c1.dc1")
	for i := 1; i < len(ch); i++ {
		if ch[i] < ch[i-1] {
			t.Fatalf("children unsorted: %v", ch)
		}
	}
}

// oldDescendantsOfType is DescendantsOfType as it read before Build indexed
// the answers: the sorted subtree walk, filtered.
func oldDescendantsOfType(t *Topology, name string, typ ComponentType) []string {
	var out []string
	for _, d := range t.Descendants(name) {
		if t.components[d].Type == typ {
			out = append(out, d)
		}
	}
	return out
}

// TestDescendantsIndexMatchesWalk: for every component × type (and an
// unknown name) the index answers what the walk does, nil where the walk
// found nothing; and the answers are clipped, so a caller appending to one
// gets a copy instead of writing into the index.
func TestDescendantsIndexMatchesWalk(t *testing.T) {
	for _, topo := range []*Topology{build(t), Build(Params{})} {
		names := []string{"nosuch"}
		for _, typ := range AllTypes {
			names = append(names, topo.Names(typ)...)
		}
		nonEmpty := 0
		for _, name := range names {
			for _, typ := range AllTypes {
				want := oldDescendantsOfType(topo, name, typ)
				got := topo.DescendantsOfType(name, typ)
				if (got == nil) != (want == nil) || strings.Join(got, ",") != strings.Join(want, ",") {
					t.Fatalf("DescendantsOfType(%s, %s) = %v, the walk finds %v", name, typ, got, want)
				}
				if len(got) == 0 {
					continue
				}
				nonEmpty++
				if cap(got) != len(got) {
					t.Fatalf("DescendantsOfType(%s, %s) has spare capacity %d", name, typ, cap(got)-len(got))
				}
				_ = append(got, "intruder")
				for _, other := range names {
					for _, d := range topo.DescendantsOfType(other, typ) {
						if d == "intruder" {
							t.Fatalf("appending to DescendantsOfType(%s, %s) changed the answer for %s", name, typ, other)
						}
					}
				}
			}
		}
		if nonEmpty == 0 {
			t.Fatal("no component has descendants")
		}
	}
}

func TestDescendantsOfTypeAllocatesNothing(t *testing.T) {
	topo := Build(Params{})
	var n int
	if allocs := testing.AllocsPerRun(100, func() {
		n += len(topo.DescendantsOfType("c1.dc1", TypeServer))
		n += len(topo.DescendantsOfType("dc2", TypeCluster))
		n += len(topo.DescendantsOfType("nosuch", TypeVM))
	}); allocs != 0 || n == 0 {
		t.Fatalf("DescendantsOfType allocates %v times per run (%d names seen)", allocs, n)
	}
}
