package gateway

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// shardNames is Shard by replica name.
func (r *ring) shardNames(h uint64) []string {
	var out []string
	for _, i := range r.Shard(h) {
		out = append(out, r.names[i])
	}
	return out
}

// oracleRing is the ring as it was before each virtual node's walk was
// precomputed: sorted points carrying names, and the walk loop that
// Shard ran for every key.
type oracleRing struct {
	points []oraclePoint
	names  []string
}

type oraclePoint struct {
	hash uint64
	name string
}

func newOracleRing(names []string) *oracleRing {
	r := &oracleRing{names: names}
	for _, name := range names {
		for v := 0; v < vnodesPerReplica; v++ {
			h := fnv.New64a()
			fmt.Fprintf(h, "%s#%d", name, v)
			r.points = append(r.points, oraclePoint{hash: h.Sum64(), name: name})
		}
	}
	slices.SortFunc(r.points, func(a, b oraclePoint) int {
		if a.hash != b.hash {
			if a.hash < b.hash {
				return -1
			}
			return 1
		}
		return strings.Compare(a.name, b.name)
	})
	return r
}

// walk is the old loop: distinct names from virtual node i on.
func (r *oracleRing) walk(i int) []string {
	var out []string
	seen := map[string]bool{}
	for k := 0; k < len(r.points) && len(out) < len(r.names); k++ {
		p := r.points[(i+k)%len(r.points)]
		if !seen[p.name] {
			seen[p.name] = true
			out = append(out, p.name)
		}
	}
	return out
}

// shard is the old Shard: the walk from the key's successor.
func (r *oracleRing) shard(h uint64) []string {
	i, _ := slices.BinarySearchFunc(r.points, h, func(p oraclePoint, h uint64) int {
		switch {
		case p.hash < h:
			return -1
		case p.hash > h:
			return 1
		}
		return 0
	})
	return r.walk(i)
}

// TestRingWalksMatchTheOldLoop: on 1-, 3- and 7-replica rings the walk
// precomputed for every virtual node is the one the old loop took from
// it, and Shard answers as the old Shard for keys on, just before and
// just after every virtual node and for random ones.
func TestRingWalksMatchTheOldLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 3, 7} {
		var names []string
		for i := 0; i < n; i++ {
			names = append(names, fmt.Sprintf("replica-%d", i))
		}
		r, old := newRing(names), newOracleRing(names)
		if len(r.hashes) != len(old.points) {
			t.Fatalf("%d replicas: %d virtual nodes, the old ring had %d", n, len(r.hashes), len(old.points))
		}
		var keys []uint64
		for i, p := range old.points {
			if r.hashes[i] != p.hash {
				t.Fatalf("%d replicas: virtual node %d hashes %x, the old ring %x", n, i, r.hashes[i], p.hash)
			}
			got := make([]string, 0, n)
			for _, j := range r.walks[i] {
				got = append(got, names[j])
			}
			if want := old.walk(i); !slices.Equal(got, want) {
				t.Fatalf("%d replicas: walk from virtual node %d is %v, the old loop's %v", n, i, got, want)
			}
			keys = append(keys, p.hash-1, p.hash, p.hash+1)
		}
		for i := 0; i < 1000; i++ {
			keys = append(keys, rng.Uint64())
		}
		keys = append(keys, 0, ^uint64(0))
		for _, h := range keys {
			if got, want := r.shardNames(h), old.shard(h); !slices.Equal(got, want) {
				t.Fatalf("%d replicas: Shard(%x) = %v, the old Shard %v", n, h, got, want)
			}
		}
	}
}

// TestHashPartsIsFNVOfTheJoinedKey: hashing the parts is FNV-1a 64 of
// team + "\x00" + title + "\x00" + body, the key the gateway used to
// build, for empty, NUL-bearing and multi-byte parts.
func TestHashPartsIsFNVOfTheJoinedKey(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	alphabet := []string{"", "a", "Z", "\x00", "\x00\x00", "é", "日本", "\xff", "tor2.c3.dc1", " "}
	part := func() string {
		var b strings.Builder
		for k := rng.Intn(6); k > 0; k-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}
	cases := [][3]string{{"", "", ""}, {"\x00", "\x00", "\x00"}, {"PhyNet", "Packet loss on tor1.c2.dc1", "FCS errors"}}
	for i := 0; i < 2000; i++ {
		cases = append(cases, [3]string{part(), part(), part()})
	}
	for _, c := range cases {
		h := fnv.New64a()
		h.Write([]byte(c[0] + "\x00" + c[1] + "\x00" + c[2]))
		if got, want := hashParts(c[0], c[1], c[2]), h.Sum64(); got != want {
			t.Fatalf("hashParts(%q, %q, %q) = %x, FNV-1a of the joined key %x", c[0], c[1], c[2], got, want)
		}
	}
}
