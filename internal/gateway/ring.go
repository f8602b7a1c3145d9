package gateway

import (
	"hash/fnv"
	"slices"
	"strconv"
	"strings"
)

// ring is a consistent-hash ring over replica names with virtual nodes.
// Shard(key) returns every distinct replica in ring-walk order from the
// key's position — the caller applies bounded-load placement by taking
// the first candidate that is healthy and under budget, so a hot shard's
// overflow spills to the *next* replica on the ring (stable spillover)
// instead of scattering. Adding or removing one replica moves only the
// keys that hashed to it; everything else keeps its owner, which is what
// keeps per-replica caches and breaker state meaningful across fleet
// changes.
type ring struct {
	// points are the virtual nodes, sorted by hash.
	points []ringPoint
	names  []string // distinct replica names, config order
}

type ringPoint struct {
	hash uint64
	name string
}

// vnodesPerReplica balances shard spread against ring size; 64 keeps the
// per-replica load within a few percent of uniform for small fleets.
const vnodesPerReplica = 64

// newRing builds the ring from replica names (order-insensitive: the
// placement depends only on the name set).
func newRing(names []string) *ring {
	r := &ring{names: slices.Clone(names)}
	for _, name := range names {
		for v := 0; v < vnodesPerReplica; v++ {
			r.points = append(r.points, ringPoint{
				hash: hashKey(name + "#" + strconv.Itoa(v)),
				name: name,
			})
		}
	}
	slices.SortFunc(r.points, func(a, b ringPoint) int {
		if a.hash != b.hash {
			if a.hash < b.hash {
				return -1
			}
			return 1
		}
		// Hash ties (vanishingly rare) break by name so the ring is a
		// pure function of the name set.
		return strings.Compare(a.name, b.name)
	})
	return r
}

// hashKey is FNV-1a 64: stable across processes and platforms, so a
// fleet of gateways shards identically without coordination.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return h.Sum64()
}

// Shard returns the distinct replica names in ring order starting at the
// key's successor. The first entry is the key's owner; later entries are
// the bounded-load spillover sequence. The returned slice is freshly
// allocated and the caller's to keep.
func (r *ring) Shard(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := hashKey(key)
	// First virtual node clockwise of h (successor), wrapping.
	i, _ := slices.BinarySearchFunc(r.points, h, func(p ringPoint, h uint64) int {
		if p.hash < h {
			return -1
		}
		if p.hash > h {
			return 1
		}
		return 0
	})
	out := make([]string, 0, len(r.names))
	seen := make(map[string]bool, len(r.names))
	for k := 0; k < len(r.points) && len(out) < len(r.names); k++ {
		p := r.points[(i+k)%len(r.points)]
		if !seen[p.name] {
			seen[p.name] = true
			out = append(out, p.name)
		}
	}
	return out
}
