package core

import (
	"encoding/json"
	"errors"
	"fmt"

	"scouts/internal/ml/cpd"
	"scouts/internal/ml/forest"
	"scouts/internal/monitoring"
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
}

// selectorDTO is the trained selector; its forest's feature names are its
// words.
type selectorDTO struct {
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
	p, err := s.parts()
	if err != nil {
		return nil, err
	}
	dto := snapshotDTO{
		ConfigSource: p.meta.ConfigSource,
		Forest:       p.rf,
		CPD:          s.cpdPlus,
		TrainMeans:   p.meta.TrainMeans,
	}
	if p.sel != nil {
		dto.Selector = &selectorDTO{Threshold: p.meta.SelectorThreshold, RF: p.sel}
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
		p, err := decodeScoutpack(data)
		if err != nil {
			return nil, err
		}
		return p.restore(topo, source)
	}
	var dto snapshotDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		return nil, fmt.Errorf("core: decoding snapshot: %w", err)
	}
	if dto.Forest == nil || dto.CPD == nil {
		return nil, errors.New("core: snapshot missing models")
	}
	p := scoutParts{
		meta: packMetaDTO{ConfigSource: dto.ConfigSource, TrainMeans: dto.TrainMeans},
		rf:   dto.Forest,
	}
	p.meta.CPDParams, p.cpd = dto.CPD.Parts()
	if dto.Selector != nil && dto.Selector.RF != nil {
		p.sel, p.meta.SelectorThreshold = dto.Selector.RF, dto.Selector.Threshold
	}
	return p.restore(topo, source)
}
