package gateway

import (
	"slices"
	"strconv"
	"strings"
)

// ring is a consistent-hash ring over replica names with virtual nodes.
// Shard(h) returns every distinct replica in ring-walk order from the
// key's position — the caller applies bounded-load placement by taking
// the first candidate that is healthy and under budget, so a hot shard's
// overflow spills to the *next* replica on the ring (stable spillover)
// instead of scattering. Adding or removing one replica moves only the
// keys that hashed to it; everything else keeps its owner, which is what
// keeps per-replica caches and breaker state meaningful across fleet
// changes.
type ring struct {
	// hashes are the virtual nodes' hashes, ascending.
	hashes []uint64
	// walks[i] is the walk from virtual node i: every replica, by index
	// into names, in the order the ring meets them. Read-only.
	walks [][]int
	names []string // distinct replica names, config order
}

// vnodesPerReplica balances shard spread against ring size; 64 keeps the
// per-replica load within a few percent of uniform for small fleets.
const vnodesPerReplica = 64

// newRing builds the ring from replica names (order-insensitive: the
// placement depends only on the name set) and walks it once from every
// virtual node.
func newRing(names []string) *ring {
	type point struct {
		hash uint64
		rep  int
	}
	r := &ring{names: slices.Clone(names)}
	points := make([]point, 0, len(names)*vnodesPerReplica)
	for i, name := range names {
		for v := 0; v < vnodesPerReplica; v++ {
			points = append(points, point{hash: hashKey(name + "#" + strconv.Itoa(v)), rep: i})
		}
	}
	slices.SortFunc(points, func(a, b point) int {
		if a.hash != b.hash {
			if a.hash < b.hash {
				return -1
			}
			return 1
		}
		// Hash ties (vanishingly rare) break by name so the ring is a
		// pure function of the name set.
		return strings.Compare(names[a.rep], names[b.rep])
	})
	n := len(names)
	flat := make([]int, 0, len(points)*n)
	seen := make([]bool, n)
	for i := range points {
		r.hashes = append(r.hashes, points[i].hash)
		clear(seen)
		walk := flat[len(flat):]
		for k := 0; k < len(points) && len(walk) < n; k++ {
			p := points[(i+k)%len(points)]
			if !seen[p.rep] {
				seen[p.rep] = true
				walk = append(walk, p.rep)
			}
		}
		flat = flat[:len(flat)+len(walk)]
		r.walks = append(r.walks, walk[:len(walk):len(walk)])
	}
	return r
}

// FNV-1a 64's parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv1a folds s into the FNV-1a 64 hash h.
func fnv1a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// hashKey is FNV-1a 64: stable across processes and platforms, so a
// fleet of gateways shards identically without coordination.
func hashKey(key string) uint64 { return fnv1a(fnvOffset64, key) }

// Shard returns the distinct replicas, as indices into the ring's names,
// in ring order starting at the successor of the key hash h. The first
// entry is the key's owner; later entries are the bounded-load spillover
// sequence. The slice is the ring's own, shared by every caller:
// read-only.
func (r *ring) Shard(h uint64) []int {
	if len(r.hashes) == 0 {
		return nil
	}
	// First virtual node clockwise of h (successor), wrapping.
	i, _ := slices.BinarySearch(r.hashes, h)
	return r.walks[i%len(r.hashes)]
}
