package forest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"scouts/internal/section"
)

// This file is the forest's one serialized form: the flat SoA arrays
// (flat.go) written out as-is, so loading is an array copy with zero
// re-derivation — no pointer trees rebuilt, no breadth-first renumbering —
// and the loaded forest is the very representation Train returns. Both
// Scout snapshot envelopes carry forests in this form (core/pack.go).
//
// Layout: a tagged-section list (internal/section), all little-endian,
// every section required, in fixed order:
//
//	FEAT  u32 count, then per feature name: u32 len | bytes
//	IMPT  float64 × dim   normalized feature importance
//	NDFT  int32   × nodes split feature per node (0 for leaves)
//	NDTH  float64 × nodes split threshold (+Inf for leaves)
//	NDKD  int32   × nodes absolute left-child index (self for leaves)
//	NDPB  float64 × nodes leaf/node probability
//	ROOT  int32   × trees root node index per tree
//	PRIR  float64         training prior (verified against ROOT/NDPB on load)
//
// The payload has no magic or version of its own: it only travels inside
// a Scout snapshot, whose scoutpack envelope versions and checksums it
// (core/pack.go). Everything
// a reader consumes is bounds-checked against the buffer before slicing,
// and the structural invariants the kernels rely on — strictly increasing
// roots, children after parents (termination), feature indices inside
// the layout — are validated on load, so a corrupt or adversarial blob
// errors out instead of panicking (or looping) in a traversal.

// packLayout is the section order AppendBinary writes.
var packLayout = []section.Spec{
	{Tag: "FEAT"}, {Tag: "IMPT"}, {Tag: "NDFT"}, {Tag: "NDTH"},
	{Tag: "NDKD"}, {Tag: "NDPB"}, {Tag: "ROOT"}, {Tag: "PRIR"},
}

// AppendBinary appends the forest's binary snapshot to buf and returns
// the extended slice, growing buf at most once, by BinaryLen. The payload
// is exactly the flat inference arrays; an untrained forest has none and
// errors.
func (f *Forest) AppendBinary(buf []byte) ([]byte, error) {
	ff := f.flat
	if ff == nil || len(ff.roots) == 0 {
		return nil, errors.New("forest: no flat view to pack (untrained forest)")
	}
	buf = slices.Grow(buf, f.BinaryLen())
	buf = section.AppendHeader(buf, "FEAT", f.featLen())
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f.features)))
	for _, name := range f.features {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(name)))
		buf = append(buf, name...)
	}
	buf = appendF64s(buf, "IMPT", f.imp)
	buf = appendI32s(buf, "NDFT", ff.feature)
	buf = appendF64s(buf, "NDTH", ff.threshold)
	buf = appendI32s(buf, "NDKD", ff.kids)
	buf = appendF64s(buf, "NDPB", ff.prob)
	buf = appendI32s(buf, "ROOT", ff.roots)
	buf = appendF64s(buf, "PRIR", []float64{ff.prior})
	return buf, nil
}

// BinaryLen is the length of the section list AppendBinary appends: 0 for
// an untrained forest, which has none.
func (f *Forest) BinaryLen() int {
	ff := f.flat
	if ff == nil || len(ff.roots) == 0 {
		return 0
	}
	// NDFT, NDTH, NDKD and NDPB take 4 + 8 + 4 + 8 bytes a node.
	return len(packLayout)*section.HeaderLen + f.featLen() + 8*len(f.imp) +
		24*len(ff.feature) + 4*len(ff.roots) + 8
}

// featLen is the FEAT payload's length: the count, then each name and its
// length.
func (f *Forest) featLen() int {
	n := 4
	for _, name := range f.features {
		n += 4 + len(name)
	}
	return n
}

// appendF64s appends the section tag holding vs.
func appendF64s(buf []byte, tag string, vs []float64) []byte {
	buf = section.AppendHeader(buf, tag, 8*len(vs))
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// appendI32s appends the section tag holding vs.
func appendI32s(buf []byte, tag string, vs []int32) []byte {
	buf = section.AppendHeader(buf, tag, 4*len(vs))
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	return buf
}

// ForestFromBinary loads a blob written by AppendBinary. The flat arrays
// are filled by direct array copies and validated (validateFlat), so the
// returned forest is the one that was packed: it predicts, explains and
// re-packs byte for byte.
func ForestFromBinary(data []byte) (*Forest, error) {
	secs, err := section.Read(data, packLayout)
	if err != nil {
		return nil, fmt.Errorf("forest: %w", err)
	}

	// FEAT: the feature-layout header.
	feat := secs["FEAT"]
	if len(feat) < 4 {
		return nil, errors.New("forest: FEAT section truncated")
	}
	dim := int(binary.LittleEndian.Uint32(feat))
	feat = feat[4:]
	// Every name costs at least its 4-byte length, which bounds the count
	// the prefix may claim before anything is allocated from it.
	if dim < 0 || dim > len(feat)/4 {
		return nil, errors.New("forest: FEAT name count overruns section")
	}
	// The names are cut from one string of the section's bytes.
	all, off := string(feat), 0
	features := make([]string, 0, dim)
	for i := 0; i < dim; i++ {
		if len(feat)-off < 4 {
			return nil, errors.New("forest: FEAT name count overruns section")
		}
		n := int(binary.LittleEndian.Uint32(feat[off:]))
		off += 4
		if n < 0 || n > len(feat)-off {
			return nil, errors.New("forest: FEAT name length overruns section")
		}
		features = append(features, all[off:off+n])
		off += n
	}

	imp, err := readF64s(secs["IMPT"], "IMPT")
	if err != nil {
		return nil, err
	}
	if len(imp) != dim {
		return nil, fmt.Errorf("forest: IMPT carries %d importances for %d features", len(imp), dim)
	}

	ff := &flatForest{}
	if ff.feature, err = readI32s(secs["NDFT"], "NDFT"); err != nil {
		return nil, err
	}
	if ff.threshold, err = readF64s(secs["NDTH"], "NDTH"); err != nil {
		return nil, err
	}
	if ff.kids, err = readI32s(secs["NDKD"], "NDKD"); err != nil {
		return nil, err
	}
	if ff.prob, err = readF64s(secs["NDPB"], "NDPB"); err != nil {
		return nil, err
	}
	if ff.roots, err = readI32s(secs["ROOT"], "ROOT"); err != nil {
		return nil, err
	}
	prior, err := readF64s(secs["PRIR"], "PRIR")
	if err != nil {
		return nil, err
	}
	if len(prior) != 1 {
		return nil, errors.New("forest: PRIR must carry exactly one value")
	}
	ff.prior = prior[0]

	if err := validateFlat(ff, dim); err != nil {
		return nil, err
	}
	return &Forest{features: features, imp: imp, flat: ff}, nil
}

func readF64s(b []byte, tag string) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("forest: %s length %d is not a float64 multiple", tag, len(b))
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, nil
}

func readI32s(b []byte, tag string) ([]int32, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("forest: %s length %d is not an int32 multiple", tag, len(b))
	}
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out, nil
}

// validateFlat enforces the structural invariants the traversal kernels
// assume, so a corrupted blob cannot send them out of bounds or into an
// infinite self-chase:
//
//   - the four node arrays agree on length;
//   - roots are strictly increasing from 0 and trees tile the node space;
//   - within a tree, a node either self-loops (leaf) or points at a child
//     pair strictly after itself and inside the tree — "children after
//     parents" is what guarantees every walk terminates;
//   - split features index into the feature layout;
//   - the stored prior matches the arrays.
func validateFlat(ff *flatForest, dim int) error {
	n := len(ff.feature)
	if len(ff.threshold) != n || len(ff.kids) != n || len(ff.prob) != n {
		return errors.New("forest: node sections disagree on node count")
	}
	trees := len(ff.roots)
	if trees == 0 || n == 0 {
		return errors.New("forest: pack contains no trees")
	}
	for t := 0; t < trees; t++ {
		lo := int(ff.roots[t])
		hi := n
		if t+1 < trees {
			hi = int(ff.roots[t+1])
		}
		if t == 0 && lo != 0 {
			return errors.New("forest: first root is not node 0")
		}
		if lo >= hi || hi > n {
			return fmt.Errorf("forest: tree %d spans [%d,%d) of %d nodes", t, lo, hi, n)
		}
		for i := lo; i < hi; i++ {
			k := int(ff.kids[i])
			if k == i {
				continue // leaf self-loop
			}
			// Children must follow their parent (termination) and the
			// adjacent pair must sit inside the tree's span.
			if k <= i || k+1 >= hi {
				return fmt.Errorf("forest: node %d child pair %d,%d escapes tree [%d,%d)", i, k, k+1, lo, hi)
			}
			if f := int(ff.feature[i]); f < 0 || f >= dim {
				return fmt.Errorf("forest: node %d splits on feature %d of %d", i, f, dim)
			}
		}
	}
	var s float64
	for _, r := range ff.roots {
		s += ff.prob[r]
	}
	if want := s / float64(trees); math.Float64bits(want) != math.Float64bits(ff.prior) {
		return errors.New("forest: stored prior disagrees with root probabilities")
	}
	return nil
}
