package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"scouts/internal/ml/cpd"
	"scouts/internal/ml/forest"
	"scouts/internal/monitoring"
	"scouts/internal/section"
	"scouts/internal/text"
	"scouts/internal/topology"
)

// This file is the Scout-level binary snapshot ("scoutpack"): the
// container that ships a whole trained Scout — routing forest, CPD+ model,
// selector — as one checksummed blob whose forest payloads are the flat
// arrays (forest/pack.go), loadable with zero re-derivation. It is the
// only format the model store writes to disk or serves
// (serving/diskstore.go); the JSON snapshot (snapshot.go) carries the same
// parts, forest payloads included, in a JSON envelope.
//
// Layout (all little-endian):
//
//	magic "SCPK" | u32 version | sha256[32] | tagged-section list
//
// The sections are internal/section's, the same codec the forest payloads
// use. The checksum covers every byte after itself, so a torn or
// bit-flipped file is rejected before any section is parsed. Sections, in
// fixed order, optional ones simply absent:
//
//	META  JSON packMetaDTO: config source, train means, CPD+ params,
//	      selector threshold
//	FRST  routing forest (required)
//	CRST  CPD+ broad-incident forest (optional)
//	SRST  selector meta-forest (optional); its feature names are the
//	      selector's words
//
// A pack of any other version, 1 included, is refused by the version
// check: no reader for another layout is kept.

const (
	scoutpackMagic     = "SCPK"
	scoutpackVersion   = 2
	scoutpackHeaderLen = 4 + 4 + sha256.Size // magic | version | checksum
)

// scoutpackLayout is the fixed section order.
var scoutpackLayout = []section.Spec{
	{Tag: "META"}, {Tag: "FRST"},
	{Tag: "CRST", Optional: true}, {Tag: "SRST", Optional: true},
}

// packMetaDTO is the JSON-encoded META section: everything in a snapshot
// that is not a forest. It is deliberately JSON — tiny, human-auditable
// with `scoutctl inspect`, and versioned by field presence; the JSON
// snapshot embeds it as is.
type packMetaDTO struct {
	ConfigSource      string         `json:"config"`
	TrainMeans        []float64      `json:"train_means"`
	CPDParams         cpd.PlusParams `json:"cpd_params"`
	SelectorThreshold float64        `json:"selector_threshold,omitempty"`
}

// scoutParts is a snapshot taken apart, whichever format it travels in:
// the META fields and the forests, cpd and sel nil when absent.
type scoutParts struct {
	meta         packMetaDTO
	rf, cpd, sel *forest.Forest
}

// packForest is one forest section of a scoutpack.
type packForest struct {
	tag, what string
	f         **forest.Forest
}

// forests lists p's forest sections in layout order.
func (p *scoutParts) forests() [3]packForest {
	return [...]packForest{{"FRST", "routing", &p.rf}, {"CRST", "CPD+", &p.cpd}, {"SRST", "selector", &p.sel}}
}

// eachForest hands put each present forest, by tag, in layout order — both
// envelopes' forest writer — and names the forest in put's error.
func (p *scoutParts) eachForest(put func(tag string, f *forest.Forest) error) error {
	for _, sec := range p.forests() {
		if *sec.f == nil {
			continue
		}
		if err := put(sec.tag, *sec.f); err != nil {
			return fmt.Errorf("core: packing %s forest: %w", sec.what, err)
		}
	}
	return nil
}

// decodeForests loads p's forests from their binary sections, by tag —
// both envelopes' one forest decoder. The routing forest is required.
func (p *scoutParts) decodeForests(blobs map[string][]byte) error {
	for _, sec := range p.forests() {
		if blob, ok := blobs[sec.tag]; ok {
			var err error
			if *sec.f, err = forest.ForestFromBinary(blob); err != nil {
				return fmt.Errorf("core: snapshot %s forest: %w", sec.what, err)
			}
		}
	}
	if p.rf == nil {
		return errors.New("core: snapshot has no routing forest")
	}
	return nil
}

// parts takes a trained Scout apart for either snapshot format. Only the
// default selector is serializable, and only a Config parsed from source
// text.
func (s *Scout) parts() (scoutParts, error) {
	if s.cfg.Source == "" {
		return scoutParts{}, fmt.Errorf("%w: configuration has no source text", ErrNotSnapshottable)
	}
	sel, ok := s.selector.(*Selector)
	if !ok {
		return scoutParts{}, fmt.Errorf("%w: custom decider %T", ErrNotSnapshottable, s.selector)
	}
	p := scoutParts{
		meta: packMetaDTO{ConfigSource: s.cfg.Source, TrainMeans: s.trainMeans},
		rf:   s.rf,
		sel:  sel.rf,
	}
	p.meta.CPDParams, p.cpd = s.cpdPlus.Parts()
	if sel.rf != nil {
		p.meta.SelectorThreshold = sel.threshold
	}
	return p, nil
}

// SnapshotPack serializes a Scout, trained or restored, to the scoutpack
// binary format. Only the default selector is serializable, and only a
// Config parsed from source text (ErrNotSnapshottable otherwise).
func (s *Scout) SnapshotPack() ([]byte, error) {
	p, err := s.parts()
	if err != nil {
		return nil, err
	}
	return assemblePack(p)
}

// assemblePack writes the header with a checksum placeholder, then the
// sections, then the sha256 over everything after the checksum field. The
// buffer is sized once: each forest section is BinaryLen long.
func assemblePack(p scoutParts) ([]byte, error) {
	meta, err := json.Marshal(p.meta)
	if err != nil {
		return nil, fmt.Errorf("core: packing snapshot meta: %w", err)
	}
	size := scoutpackHeaderLen + section.HeaderLen + len(meta)
	p.eachForest(func(_ string, f *forest.Forest) error {
		size += section.HeaderLen + f.BinaryLen()
		return nil
	})
	buf := make([]byte, scoutpackHeaderLen, size)
	copy(buf, scoutpackMagic)
	binary.LittleEndian.PutUint32(buf[4:], scoutpackVersion)
	buf = section.Append(buf, "META", meta)
	if err := p.eachForest(func(tag string, f *forest.Forest) (err error) {
		buf = section.AppendHeader(buf, tag, f.BinaryLen())
		buf, err = f.AppendBinary(buf)
		return err
	}); err != nil {
		return nil, err
	}
	sum := sha256.Sum256(buf[scoutpackHeaderLen:])
	copy(buf[8:], sum[:])
	return buf, nil
}

// parseScoutpack verifies the header (magic, version, checksum) and
// returns the section payloads keyed by tag.
func parseScoutpack(data []byte) (map[string][]byte, error) {
	if !IsScoutpack(data) {
		return nil, errors.New("core: not a scoutpack (no SCPK magic)")
	}
	if len(data) < scoutpackHeaderLen {
		return nil, errors.New("core: scoutpack header truncated")
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != scoutpackVersion {
		return nil, fmt.Errorf("core: scoutpack version %d not supported (want %d)", v, scoutpackVersion)
	}
	if sum := sha256.Sum256(data[scoutpackHeaderLen:]); string(sum[:]) != string(data[8:scoutpackHeaderLen]) {
		return nil, errors.New("core: scoutpack checksum mismatch (torn or corrupted file)")
	}
	secs, err := section.Read(data[scoutpackHeaderLen:], scoutpackLayout)
	if err != nil {
		return nil, fmt.Errorf("core: scoutpack: %w", err)
	}
	return secs, nil
}

// decodeScoutpack verifies a scoutpack's header and decodes every
// section — the one decoder behind Restore and InspectPack.
func decodeScoutpack(data []byte) (scoutParts, error) {
	secs, err := parseScoutpack(data)
	if err != nil {
		return scoutParts{}, err
	}
	var p scoutParts
	if err := json.Unmarshal(secs["META"], &p.meta); err != nil {
		return scoutParts{}, fmt.Errorf("core: scoutpack META: %w", err)
	}
	if err := p.decodeForests(secs); err != nil {
		return scoutParts{}, err
	}
	return p, nil
}

// servedConfig is the configuration restore last parsed. A reload nearly
// always carries the configuration already served, and parsing one
// compiles every extractor's regexp three times. Nothing writes a Config
// once ParseConfig has returned it, and a Scout never hands its own out, so
// the Scouts restored from one configuration text share its parse.
var servedConfig atomic.Pointer[Config]

// restoredConfig returns src parsed: the configuration restore last parsed
// when src is its text, ParseConfig's answer otherwise. Only a
// configuration that parses is kept.
func restoredConfig(src string) (*Config, error) {
	if cfg := servedConfig.Load(); cfg != nil && cfg.Source == src {
		return cfg, nil
	}
	cfg, err := ParseConfig(src)
	if err != nil {
		return nil, err
	}
	servedConfig.Store(cfg)
	return cfg, nil
}

// restore rebuilds a Scout from its parts against a topology and data
// source — both snapshot envelopes' last step, and where the parts are
// checked against each other and against the source's feature layout. The
// forests are the loaded flat arrays as they are, so either snapshot of
// the result reproduces its input byte for byte.
func (p scoutParts) restore(topo *topology.Topology, source monitoring.DataSource) (*Scout, error) {
	cfg, err := restoredConfig(p.meta.ConfigSource)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot config: %w", err)
	}
	plus, err := cpd.PlusFromParts(p.meta.CPDParams, p.cpd)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot CPD+ model: %w", err)
	}
	s := &Scout{
		cfg:        cfg,
		rf:         p.rf,
		cpdPlus:    plus,
		trainMeans: p.meta.TrainMeans,
		selector:   &Selector{},
	}
	dim := len(p.rf.Features())
	// Imputation fills a dark feature with its training mean, and skips
	// the whole vector when the two lengths differ.
	if len(s.trainMeans) != dim {
		return nil, fmt.Errorf("core: snapshot carries %d train means for %d features", len(s.trainMeans), dim)
	}
	s.fb = NewFeatureBuilder(cfg, topo, source)
	if !slices.Equal(p.rf.Features(), s.fb.FeatureNames()) {
		return nil, fmt.Errorf("core: snapshot layout (%d features) does not match the data source's (%d)", dim, len(s.fb.FeatureNames()))
	}
	if p.sel != nil {
		s.selector = &Selector{
			words:     text.NewWordCounter(p.sel.Features()),
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

// InspectPack verifies a scoutpack's header and returns its summary
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

// VerifyScoutpack checks a scoutpack's header — magic, version,
// checksum — and its section list without building any model from it. The
// diskstore uses it to quarantine damaged files at load time instead of
// failing a later hot-swap.
func VerifyScoutpack(data []byte) error {
	_, err := parseScoutpack(data)
	return err
}
