// Package topology models the datacenter component hierarchy the Scout
// framework extracts and expands incident components against — the
// provider's "logical/physical topology abstractions" ([52], §5.1).
//
// Components carry the machine-generated names operators embed in incident
// text (the paper's example: "VM X.c10.dc3 in cluster c10.dc3"): a VM
// "vm12.c10.dc3" runs on server "srv4.c10.dc3", which hangs off ToR switch
// "tor2.c10.dc3" in cluster "c10.dc3" of datacenter "dc3".
package topology

import (
	"fmt"
	"sort"
)

// ComponentType classifies a datacenter component. The PhyNet Scout's
// configuration recognizes exactly the five types of the paper's example
// (§5.1): VM, server, switch, cluster, DC.
type ComponentType string

// The component types of the synthetic cloud.
const (
	TypeDC      ComponentType = "dc"
	TypeCluster ComponentType = "cluster"
	TypeSwitch  ComponentType = "switch"
	TypeServer  ComponentType = "server"
	TypeVM      ComponentType = "vm"
)

// AllTypes lists every component type from the leaf up.
var AllTypes = []ComponentType{TypeVM, TypeServer, TypeSwitch, TypeCluster, TypeDC}

// Component is one named element of the hierarchy.
type Component struct {
	Name   string
	Type   ComponentType
	Parent string // name of the containing component; "" for a DC
}

// Params size the generated topology.
type Params struct {
	DCs            int // number of datacenters (default 2)
	ClustersPerDC  int // clusters per DC (default 4)
	ToRsPerCluster int // top-of-rack switches per cluster (default 4)
	AggsPerCluster int // aggregation switches per cluster (default 2)
	ServersPerToR  int // servers per ToR (default 4)
	VMsPerServer   int // VMs per server (default 2)
}

func (p Params) withDefaults() Params {
	if p.DCs <= 0 {
		p.DCs = 2
	}
	if p.ClustersPerDC <= 0 {
		p.ClustersPerDC = 4
	}
	if p.ToRsPerCluster <= 0 {
		p.ToRsPerCluster = 4
	}
	if p.AggsPerCluster < 0 {
		p.AggsPerCluster = 0
	} else if p.AggsPerCluster == 0 {
		p.AggsPerCluster = 2
	}
	if p.ServersPerToR <= 0 {
		p.ServersPerToR = 4
	}
	if p.VMsPerServer <= 0 {
		p.VMsPerServer = 2
	}
	return p
}

// Topology is an immutable component hierarchy plus explicit cross-tree
// dependency edges (e.g. a VM depending on a remote storage cluster).
type Topology struct {
	components map[string]*Component
	children   map[string][]string
	// ofType indexes every component's descendants per type, name-sorted;
	// Build fills it once so DescendantsOfType is a lookup, not a subtree
	// walk and a sort per call.
	ofType map[descKey][]string
}

type descKey struct {
	ancestor string
	typ      ComponentType
}

// Build generates a topology with the standard naming scheme.
func Build(p Params) *Topology {
	p = p.withDefaults()
	t := &Topology{
		components: map[string]*Component{},
		children:   map[string][]string{},
		ofType:     map[descKey][]string{},
	}
	for d := 1; d <= p.DCs; d++ {
		dc := fmt.Sprintf("dc%d", d)
		t.add(dc, TypeDC, "")
		for c := 1; c <= p.ClustersPerDC; c++ {
			cluster := fmt.Sprintf("c%d.%s", c, dc)
			t.add(cluster, TypeCluster, dc)
			for a := 1; a <= p.AggsPerCluster; a++ {
				t.add(fmt.Sprintf("agg%d.%s", a, cluster), TypeSwitch, cluster)
			}
			srvIdx, vmIdx := 0, 0
			for s := 1; s <= p.ToRsPerCluster; s++ {
				tor := fmt.Sprintf("tor%d.%s", s, cluster)
				t.add(tor, TypeSwitch, cluster)
				for h := 0; h < p.ServersPerToR; h++ {
					srvIdx++
					srv := fmt.Sprintf("srv%d.%s", srvIdx, cluster)
					t.add(srv, TypeServer, tor)
					for v := 0; v < p.VMsPerServer; v++ {
						vmIdx++
						t.add(fmt.Sprintf("vm%d.%s", vmIdx, cluster), TypeVM, srv)
					}
				}
			}
		}
	}
	t.indexDescendants()
	return t
}

// indexDescendants files every component under each of its ancestors, by
// type, then sorts each list and clips it to its length so that a caller
// appending to a returned slice copies instead of writing into the index.
func (t *Topology) indexDescendants() {
	for name, c := range t.components {
		for anc := c.Parent; anc != ""; anc = t.components[anc].Parent {
			k := descKey{anc, c.Type}
			t.ofType[k] = append(t.ofType[k], name)
		}
	}
	for k, names := range t.ofType {
		sort.Strings(names)
		t.ofType[k] = names[:len(names):len(names)]
	}
}

func (t *Topology) add(name string, typ ComponentType, parent string) {
	t.components[name] = &Component{Name: name, Type: typ, Parent: parent}
	if parent != "" {
		t.children[parent] = append(t.children[parent], name)
	}
}

// Lookup returns the component with the given name.
func (t *Topology) Lookup(name string) (*Component, bool) {
	c, ok := t.components[name]
	return c, ok
}

// LookupBytes is Lookup for a name held in bytes; it copies nothing.
func (t *Topology) LookupBytes(name []byte) (*Component, bool) {
	c, ok := t.components[string(name)]
	return c, ok
}

// Names returns all component names of a type, sorted.
func (t *Topology) Names(typ ComponentType) []string {
	var out []string
	for name, c := range t.components {
		if c.Type == typ {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Children returns the direct children of a component, sorted.
func (t *Topology) Children(name string) []string {
	out := append([]string(nil), t.children[name]...)
	sort.Strings(out)
	return out
}

// Ancestors walks up the containment chain from (excluding) name to the DC.
func (t *Topology) Ancestors(name string) []string {
	var out []string
	c, ok := t.components[name]
	for ok && c.Parent != "" {
		out = append(out, c.Parent)
		c, ok = t.components[c.Parent]
	}
	return out
}

// ClusterOf returns the cluster containing the component ("" when the
// component is a DC or unknown).
func (t *Topology) ClusterOf(name string) string {
	c, ok := t.components[name]
	for ok {
		if c.Type == TypeCluster {
			return c.Name
		}
		if c.Parent == "" {
			return ""
		}
		c, ok = t.components[c.Parent]
	}
	return ""
}

// DescendantsOfType returns the components of one type under name, sorted
// by name (nil when there are none). The slice is shared with every other
// caller and must not be modified.
func (t *Topology) DescendantsOfType(name string, typ ComponentType) []string {
	return t.ofType[descKey{name, typ}]
}

// ServerOfVM returns the server hosting a VM ("" if not a VM).
func (t *Topology) ServerOfVM(vm string) string {
	c, ok := t.components[vm]
	if !ok || c.Type != TypeVM {
		return ""
	}
	return c.Parent
}

// ToROfServer returns the ToR switch above a server ("" if not a server).
func (t *Topology) ToROfServer(srv string) string {
	c, ok := t.components[srv]
	if !ok || c.Type != TypeServer {
		return ""
	}
	return c.Parent
}
