package forest

import (
	"encoding/json"
	"errors"
	"fmt"
)

// nodeDTO is the serialized form of a tree node.
type nodeDTO struct {
	F int     `json:"f"` // split feature, -1 for leaf
	T float64 `json:"t,omitempty"`
	L int     `json:"l,omitempty"`
	R int     `json:"r,omitempty"`
	P float64 `json:"p"`
	W float64 `json:"w,omitempty"`
}

// forestDTO is the serialized form of a Forest.
type forestDTO struct {
	Features []string    `json:"features"`
	Imp      []float64   `json:"importance"`
	Params   Params      `json:"params"`
	Trees    [][]nodeDTO `json:"trees"`
}

// MarshalJSON serializes the forest (model persistence for the serving
// pipeline, §6). Pack-loaded forests carry only the flat inference view —
// the pointer trees the JSON format is made of are gone — so they refuse
// to serialize rather than emit an empty ensemble.
func (f *Forest) MarshalJSON() ([]byte, error) {
	if f.trees == nil && f.flat != nil {
		return nil, errors.New("forest: pack-loaded forest has no pointer trees; JSON snapshot unavailable")
	}
	dto := forestDTO{Features: f.features, Imp: f.imp, Params: f.params}
	for _, t := range f.trees {
		nodes := make([]nodeDTO, len(t.nodes))
		for i, n := range t.nodes {
			nodes[i] = nodeDTO{F: n.feature, T: n.threshold, L: n.left, R: n.right, P: n.prob, W: n.weight}
		}
		dto.Trees = append(dto.Trees, nodes)
	}
	return json.Marshal(dto)
}

// UnmarshalJSON restores a forest serialized with MarshalJSON. A snapshot
// can arrive from outside the process (core.Restore behind a server
// reload), so every tree is validated before it is flattened — the same
// guarantees validateFlat gives a binary pack.
func (f *Forest) UnmarshalJSON(b []byte) error {
	var dto forestDTO
	if err := json.Unmarshal(b, &dto); err != nil {
		return err
	}
	if len(dto.Trees) == 0 {
		return errors.New("forest: snapshot contains no trees")
	}
	if len(dto.Imp) != len(dto.Features) {
		return fmt.Errorf("forest: snapshot carries %d importances for %d features", len(dto.Imp), len(dto.Features))
	}
	trees := make([]*tree, len(dto.Trees))
	for ti, nodes := range dto.Trees {
		if err := validateNodes(nodes, len(dto.Features)); err != nil {
			return fmt.Errorf("forest: snapshot tree %d: %w", ti, err)
		}
		t := &tree{nodes: make([]node, len(nodes))}
		for i, n := range nodes {
			t.nodes[i] = node{feature: n.F, threshold: n.T, left: n.L, right: n.R, prob: n.P, weight: n.W}
		}
		trees[ti] = t
	}
	f.features = dto.Features
	f.imp = dto.Imp
	f.params = dto.Params
	f.trees = trees
	// Snapshots carry only the pointer trees; the inference-time flat SoA
	// view is derived here, exactly as Train derives it.
	f.flat = newFlatForest(f.trees)
	return nil
}

// validateNodes enforces the shape grow produces and newFlatForest and
// the traversals assume: node 0 is the root, a split's children come
// strictly after it (so every walk terminates) and every other node is
// the child of exactly one split (so the breadth-first renumbering
// assigns each flat slot once and leaves none unset).
func validateNodes(nodes []nodeDTO, dim int) error {
	if len(nodes) == 0 {
		return errors.New("empty tree")
	}
	referenced := make([]bool, len(nodes))
	for i, n := range nodes {
		if n.F < 0 {
			continue // leaf
		}
		if n.F >= dim {
			return fmt.Errorf("node %d splits on feature %d of %d", i, n.F, dim)
		}
		for _, c := range [2]int{n.L, n.R} {
			if c <= i || c >= len(nodes) {
				return fmt.Errorf("node %d child %d is not a later node of the tree", i, c)
			}
			if referenced[c] {
				return fmt.Errorf("node %d is the child of two splits", c)
			}
			referenced[c] = true
		}
	}
	for i := 1; i < len(nodes); i++ {
		if !referenced[i] {
			return fmt.Errorf("node %d is unreachable", i)
		}
	}
	return nil
}
