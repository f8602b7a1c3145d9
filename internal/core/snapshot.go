package core

import (
	"encoding/json"
	"errors"
	"fmt"

	"scouts/internal/ml/forest"
	"scouts/internal/monitoring"
	"scouts/internal/topology"
)

// snapshotDTO is the JSON snapshot: a scoutpack's parts in a JSON
// envelope — the META fields at top level, and each forest's binary
// section (base64, as encoding/json writes a []byte) keyed by its
// scoutpack tag. Both envelopes decode through the same forest decoder and
// rebuild through the same scoutParts.restore.
type snapshotDTO struct {
	packMetaDTO
	Forests map[string][]byte `json:"forests"`
}

// ErrNotSnapshottable is returned when the Scout cannot be serialized
// (custom decider models, or a Config built without source text).
var ErrNotSnapshottable = errors.New("core: scout is not snapshottable")

// Snapshot serializes a Scout, trained or restored, to the JSON envelope.
// The snapshottability rules are SnapshotPack's.
func (s *Scout) Snapshot() ([]byte, error) {
	p, err := s.parts()
	if err != nil {
		return nil, err
	}
	dto := snapshotDTO{packMetaDTO: p.meta, Forests: map[string][]byte{}}
	if err := p.eachForest(func(tag string, f *forest.Forest) (err error) {
		dto.Forests[tag], err = f.AppendBinary(nil)
		return err
	}); err != nil {
		return nil, err
	}
	return json.Marshal(dto)
}

// Restore rebuilds a Scout from a snapshot against a (possibly different)
// topology and data source with the same monitoring registry. The envelope
// is sniffed from the leading bytes: a scoutpack is verified and decoded
// (decodeScoutpack), anything else is read as the JSON envelope. Either
// way the forests decode through forest.ForestFromBinary and the Scout is
// rebuilt and checked by scoutParts.restore.
func Restore(data []byte, topo *topology.Topology, source monitoring.DataSource) (*Scout, error) {
	var p scoutParts
	if IsScoutpack(data) {
		var err error
		if p, err = decodeScoutpack(data); err != nil {
			return nil, err
		}
	} else {
		var dto snapshotDTO
		if err := json.Unmarshal(data, &dto); err != nil {
			return nil, fmt.Errorf("core: decoding snapshot: %w", err)
		}
		p.meta = dto.packMetaDTO
		if err := p.decodeForests(dto.Forests); err != nil {
			return nil, err
		}
	}
	return p.restore(topo, source)
}
