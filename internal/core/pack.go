package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	"scouts/internal/ml/cpd"
	"scouts/internal/ml/forest"
	"scouts/internal/monitoring"
	"scouts/internal/text"
	"scouts/internal/topology"
)

// This file is the Scout-level binary snapshot ("scoutpack"): the
// container that ships a whole trained Scout — routing forest, CPD+ model,
// selector — as one checksummed blob whose forest payloads are the SFF1
// flat arrays (forest/pack.go), loadable with zero re-derivation. It is
// the only format the model store writes to disk (serving/diskstore.go);
// the JSON snapshot (snapshot.go) stays as the in-memory interchange form.
//
// Layout ("SCPK", all little-endian):
//
//	magic "SCPK" | u32 version | sha256[32] | u32 sectionCount
//	per section: tag[4] | pad[4] | u64 payloadLen | payload | pad to 8
//
// The checksum covers every byte after itself (sectionCount and all
// sections), so a torn or bit-flipped file is rejected before any section
// is parsed. Sections, in fixed order, optional ones simply absent:
//
//	META  JSON packMetaDTO: config source, train means, detector params,
//	      CPD+ params, selector words/threshold, presence flags
//	FRST  SFF1 routing forest (required)
//	CRST  SFF1 CPD+ broad-incident forest (optional)
//	SRST  SFF1 selector meta-forest (optional)

const (
	scoutpackMagic   = "SCPK"
	scoutpackVersion = 1
)

// scoutpackSections is the fixed section order; optional sections may be
// absent but never reordered.
var scoutpackSections = []string{"META", "FRST", "CRST", "SRST"}

// ErrNotScoutpack is returned when a blob does not start with the SCPK
// magic — Restore uses it to fall through to the JSON path.
var ErrNotScoutpack = errors.New("core: not a scoutpack snapshot")

// packMetaDTO is the JSON-encoded META section: everything in a snapshot
// that is not a forest. It is deliberately JSON — tiny, human-auditable
// with `scoutctl inspect`, and versioned by field presence like the
// snapshot DTO it mirrors.
type packMetaDTO struct {
	ConfigSource string    `json:"config"`
	TrainMeans   []float64 `json:"train_means"`
	// Detector repeats CPDParams.Detector: written so packs keep their
	// bytes, never read.
	Detector          cpd.Params     `json:"detector"`
	CPDParams         cpd.PlusParams `json:"cpd_params"`
	SelectorWords     []string       `json:"selector_words,omitempty"`
	SelectorThreshold float64        `json:"selector_threshold,omitempty"`
}

// SnapshotPack serializes a trained Scout to the scoutpack binary format.
// The same snapshottability rules as Snapshot apply.
func (s *Scout) SnapshotPack() ([]byte, error) {
	if s.cfg.Source == "" {
		return nil, fmt.Errorf("%w: configuration has no source text", ErrNotSnapshottable)
	}
	sel, ok := s.selector.(*Selector)
	if !ok {
		return nil, fmt.Errorf("%w: custom decider %T", ErrNotSnapshottable, s.selector)
	}
	cpdParams, cpdRF := s.cpdPlus.Parts()
	meta := packMetaDTO{
		ConfigSource: s.cfg.Source,
		TrainMeans:   s.trainMeans,
		Detector:     cpdParams.Detector,
		CPDParams:    cpdParams,
	}
	var selRF *forest.Forest
	if sel.rf != nil {
		meta.SelectorWords = sel.words.Names()
		meta.SelectorThreshold = sel.threshold
		selRF = sel.rf
	}
	return assemblePack(meta, s.rf, cpdRF, selRF)
}

// assemblePack writes the envelope: header with a checksum placeholder,
// sections, then the sha256 over everything after the checksum field.
func assemblePack(meta packMetaDTO, rf, cpdRF, selRF *forest.Forest) ([]byte, error) {
	metaBlob, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("core: packing snapshot meta: %w", err)
	}
	rfBlob, err := rf.AppendBinary(nil)
	if err != nil {
		return nil, fmt.Errorf("core: packing routing forest: %w", err)
	}
	sections := []struct {
		tag     string
		payload []byte
	}{{"META", metaBlob}, {"FRST", rfBlob}}
	if cpdRF != nil {
		blob, err := cpdRF.AppendBinary(nil)
		if err != nil {
			return nil, fmt.Errorf("core: packing CPD+ forest: %w", err)
		}
		sections = append(sections, struct {
			tag     string
			payload []byte
		}{"CRST", blob})
	}
	if selRF != nil {
		blob, err := selRF.AppendBinary(nil)
		if err != nil {
			return nil, fmt.Errorf("core: packing selector forest: %w", err)
		}
		sections = append(sections, struct {
			tag     string
			payload []byte
		}{"SRST", blob})
	}

	buf := append([]byte(nil), scoutpackMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, scoutpackVersion)
	sumAt := len(buf)
	buf = append(buf, make([]byte, sha256.Size)...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sections)))
	for _, sec := range sections {
		buf = append(buf, sec.tag...)
		buf = append(buf, 0, 0, 0, 0)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(sec.payload)))
		buf = append(buf, sec.payload...)
		for len(buf)%8 != 0 {
			buf = append(buf, 0)
		}
	}
	sum := sha256.Sum256(buf[sumAt+sha256.Size:])
	copy(buf[sumAt:], sum[:])
	return buf, nil
}

// parseScoutpack verifies the envelope (magic, version, checksum) and
// returns the section payloads keyed by tag. Every length is checked
// against the remaining buffer before slicing.
func parseScoutpack(data []byte) (map[string][]byte, error) {
	headerLen := 4 + 4 + sha256.Size + 4
	if len(data) < 8 || string(data[:4]) != scoutpackMagic {
		return nil, ErrNotScoutpack
	}
	if len(data) < headerLen {
		return nil, errors.New("core: scoutpack header truncated")
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != scoutpackVersion {
		return nil, fmt.Errorf("core: scoutpack version %d not supported (want %d)", v, scoutpackVersion)
	}
	sumAt := 8
	stored := data[sumAt : sumAt+sha256.Size]
	if sum := sha256.Sum256(data[sumAt+sha256.Size:]); string(sum[:]) != string(stored) {
		return nil, errors.New("core: scoutpack checksum mismatch (torn or corrupted file)")
	}
	count := int(binary.LittleEndian.Uint32(data[sumAt+sha256.Size:]))
	if count < 2 || count > len(scoutpackSections) {
		return nil, fmt.Errorf("core: scoutpack carries %d sections, want 2..%d", count, len(scoutpackSections))
	}
	secs := make(map[string][]byte, count)
	off := headerLen
	next := 0
	for i := 0; i < count; i++ {
		if len(data)-off < 16 {
			return nil, errors.New("core: scoutpack section header truncated")
		}
		tag := string(data[off : off+4])
		// Tags must appear in scoutpackSections order, each at most once.
		for next < len(scoutpackSections) && scoutpackSections[next] != tag {
			next++
		}
		if next == len(scoutpackSections) {
			return nil, fmt.Errorf("core: scoutpack section %q unknown or out of order", tag)
		}
		next++
		n := binary.LittleEndian.Uint64(data[off+8:])
		off += 16
		if n > uint64(len(data)-off) {
			return nil, fmt.Errorf("core: scoutpack section %q claims %d bytes, only %d remain", tag, n, len(data)-off)
		}
		secs[tag] = data[off : off+int(n)]
		off += int(n)
		off = (off + 7) &^ 7
		if off > len(data) {
			return nil, errors.New("core: scoutpack section padding overruns buffer")
		}
	}
	if secs["META"] == nil || secs["FRST"] == nil {
		return nil, errors.New("core: scoutpack missing META or FRST section")
	}
	return secs, nil
}

// decodedPack is a scoutpack's sections, decoded: the META fields and the
// forests, cpd and sel nil when their sections are absent.
type decodedPack struct {
	meta         packMetaDTO
	rf, cpd, sel *forest.Forest
}

// decodeScoutpack verifies a scoutpack's envelope and decodes every
// section — the one decoder behind Restore and InspectPack.
func decodeScoutpack(data []byte) (decodedPack, error) {
	secs, err := parseScoutpack(data)
	if err != nil {
		return decodedPack{}, err
	}
	var p decodedPack
	if err := json.Unmarshal(secs["META"], &p.meta); err != nil {
		return decodedPack{}, fmt.Errorf("core: scoutpack META: %w", err)
	}
	for _, sec := range []struct {
		tag, what string
		dst       **forest.Forest
	}{{"FRST", "routing", &p.rf}, {"CRST", "CPD+", &p.cpd}, {"SRST", "selector", &p.sel}} {
		if blob := secs[sec.tag]; blob != nil {
			if *sec.dst, err = forest.ForestFromBinary(blob); err != nil {
				return decodedPack{}, fmt.Errorf("core: scoutpack %s forest: %w", sec.what, err)
			}
		}
	}
	return p, nil
}

// restorePack rebuilds a Scout from a scoutpack blob — Restore's binary
// path. The forests come up flat-only: inference works through the SFF1
// arrays with zero re-derivation, SnapshotPack on the result reproduces
// the pack byte for byte, and the JSON Snapshot is refused (the pointer
// trees are gone by design).
func restorePack(data []byte, topo *topology.Topology, source monitoring.DataSource) (*Scout, error) {
	p, err := decodeScoutpack(data)
	if err != nil {
		return nil, err
	}
	cfg, err := ParseConfig(p.meta.ConfigSource)
	if err != nil {
		return nil, fmt.Errorf("core: scoutpack config: %w", err)
	}
	s := &Scout{
		cfg:        cfg,
		rf:         p.rf,
		cpdPlus:    cpd.PlusFromParts(p.meta.CPDParams, p.cpd),
		trainMeans: p.meta.TrainMeans,
		selector:   &Selector{},
	}
	s.fb = NewFeatureBuilder(cfg, topo, source)
	if got, want := len(s.fb.FeatureNames()), len(p.rf.Features()); got != want {
		return nil, fmt.Errorf("core: scoutpack layout (%d features) does not match data source (%d)", want, got)
	}
	if p.sel != nil {
		s.selector = &Selector{
			words:     text.NewWordCounter(p.meta.SelectorWords),
			rf:        p.sel,
			threshold: p.meta.SelectorThreshold,
		}
	}
	return s, nil
}

// PackInfo summarizes a scoutpack for operators (`scoutctl inspect`).
type PackInfo struct {
	Version     int     `json:"version"`
	Bytes       int     `json:"bytes"`
	Features    int     `json:"features"`
	Trees       int     `json:"trees"`
	Nodes       int     `json:"nodes"`
	CPDTrees    int     `json:"cpd_trees"`
	SelTrees    int     `json:"selector_trees"`
	TrainMeans  int     `json:"train_means"`
	SelectorThr float64 `json:"selector_threshold,omitempty"`
}

// InspectPack verifies a scoutpack's envelope and returns its summary
// without needing a topology or data source.
func InspectPack(data []byte) (PackInfo, error) {
	p, err := decodeScoutpack(data)
	if err != nil {
		return PackInfo{}, err
	}
	info := PackInfo{
		Version:     scoutpackVersion,
		Bytes:       len(data),
		Features:    len(p.rf.Features()),
		Trees:       p.rf.NumTrees(),
		Nodes:       p.rf.NumNodes(),
		TrainMeans:  len(p.meta.TrainMeans),
		SelectorThr: p.meta.SelectorThreshold,
	}
	if p.cpd != nil {
		info.CPDTrees = p.cpd.NumTrees()
	}
	if p.sel != nil {
		info.SelTrees = p.sel.NumTrees()
	}
	return info, nil
}

// IsScoutpack reports whether data carries the scoutpack magic — the
// cheap format sniff the diskstore and Restore share.
func IsScoutpack(data []byte) bool {
	return len(data) >= 4 && string(data[:4]) == scoutpackMagic
}

// VerifyScoutpack checks a scoutpack's envelope — magic, version,
// checksum, section table — without building any model from it. The
// diskstore uses it to quarantine damaged files at load time instead of
// failing a later hot-swap.
func VerifyScoutpack(data []byte) error {
	_, err := parseScoutpack(data)
	return err
}
