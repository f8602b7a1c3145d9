package core

import (
	"encoding/json"
	"errors"
	"fmt"

	"scouts/internal/ml/cpd"
	"scouts/internal/ml/forest"
	"scouts/internal/monitoring"
	"scouts/internal/text"
	"scouts/internal/topology"
)

// snapshotDTO is the serialized form of a trained Scout: everything the
// online serving component needs to answer queries (§6: the offline
// component trains, persists to highly-available storage, and the online
// component serves).
type snapshotDTO struct {
	ConfigSource string         `json:"config"`
	Forest       *forest.Forest `json:"forest"`
	CPD          *cpd.Plus      `json:"cpd"`
	Selector     *selectorDTO   `json:"selector,omitempty"`
	TrainMeans   []float64      `json:"train_means"`
	// Detector repeats the CPD+ model's own detector parameters: written so
	// snapshots keep their bytes, never read.
	Detector cpd.Params `json:"detector"`
}

type selectorDTO struct {
	Words     []string       `json:"words"`
	Threshold float64        `json:"threshold"`
	RF        *forest.Forest `json:"rf,omitempty"`
}

// ErrNotSnapshottable is returned when the Scout cannot be serialized
// (custom decider models, or a Config built without source text).
var ErrNotSnapshottable = errors.New("core: scout is not snapshottable")

// Snapshot serializes a trained Scout to JSON. Only the default selector
// is serializable; a Scout with a swapped decider returns
// ErrNotSnapshottable.
func (s *Scout) Snapshot() ([]byte, error) {
	if s.cfg.Source == "" {
		return nil, fmt.Errorf("%w: configuration has no source text", ErrNotSnapshottable)
	}
	cpdParams, _ := s.cpdPlus.Parts()
	dto := snapshotDTO{
		ConfigSource: s.cfg.Source,
		Forest:       s.rf,
		CPD:          s.cpdPlus,
		TrainMeans:   s.trainMeans,
		Detector:     cpdParams.Detector,
	}
	switch sel := s.selector.(type) {
	case *Selector:
		if sel.rf != nil {
			dto.Selector = &selectorDTO{
				Words:     sel.words.Names(),
				Threshold: sel.threshold,
				RF:        sel.rf,
			}
		}
	default:
		return nil, fmt.Errorf("%w: custom decider %T", ErrNotSnapshottable, s.selector)
	}
	return json.Marshal(dto)
}

// Restore rebuilds a Scout from a snapshot against a (possibly different)
// topology and data source with the same monitoring registry. Both
// snapshot formats are accepted: the format is sniffed from the leading
// bytes, so callers stay format-agnostic — a scoutpack (binary) restores
// through the zero-re-derivation path, anything else through JSON.
func Restore(data []byte, topo *topology.Topology, source monitoring.DataSource) (*Scout, error) {
	if IsScoutpack(data) {
		return restorePack(data, topo, source)
	}
	var dto snapshotDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		return nil, fmt.Errorf("core: decoding snapshot: %w", err)
	}
	if dto.Forest == nil || dto.CPD == nil {
		return nil, errors.New("core: snapshot missing models")
	}
	cfg, err := ParseConfig(dto.ConfigSource)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot config: %w", err)
	}
	s := &Scout{
		cfg:        cfg,
		rf:         dto.Forest,
		cpdPlus:    dto.CPD,
		trainMeans: dto.TrainMeans,
	}
	s.fb = NewFeatureBuilder(cfg, topo, source)
	if got, want := len(s.fb.FeatureNames()), len(dto.Forest.Features()); got != want {
		return nil, fmt.Errorf("core: snapshot layout (%d features) does not match data source (%d)", want, got)
	}
	if dto.Selector != nil {
		s.selector = &Selector{
			words:     text.NewWordCounter(dto.Selector.Words),
			rf:        dto.Selector.RF,
			threshold: dto.Selector.Threshold,
		}
	} else {
		s.selector = &Selector{}
	}
	return s, nil
}
