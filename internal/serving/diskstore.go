package serving

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"scouts/internal/core"
)

// The disk store persists every model version as one file,
// model-%06d.pack: magic "SDP1" | u32 metaLen | meta JSON (version/team/
// trained_at + payload checksum) | raw scoutpack bytes. Loading it reads
// only the small meta as JSON: the scoutpack bytes land in memory as-is
// and core.Restore copies its forest arrays out with zero re-derivation. Damaged files are quarantined, not fatal, and so is a
// model-%06d.json left behind by the retired JSON disk format — reported
// with its reason, never loaded and never silently skipped.

// packEnvelopeMagic heads a .pack store file (the disk envelope, not the
// scoutpack payload itself, which carries its own "SCPK" magic+checksum).
const packEnvelopeMagic = "SDP1"

// packMeta is the JSON header of a .pack store file: the Model's
// metadata fields, kept outside the binary payload so `ls` + `head` on a
// store directory stays explicable without a scoutpack parser.
type packMeta struct {
	Version   int    `json:"version"`
	Team      string `json:"team"`
	TrainedAt string `json:"trained_at"` // RFC3339Nano, as time.Time JSON
	Checksum  string `json:"checksum"`   // "sha256:" + hex of payload
}

func checksumOf(payload []byte) string {
	sum := sha256.Sum256(payload)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// SaveStore persists every model version of a store to a directory, one
// model-%06d.pack file per version. A version the store loaded from that
// file, or saved to it, is not written again while the file is there: a
// published version never changes, so a publish (load the directory, Put,
// save) writes only the version it adds. Any other file under a version's
// name is replaced. A version whose snapshot is not a scoutpack is an
// error: the directory has one file format. The directory is created if
// needed. Each file is written crash-safely: the bytes go to a temp file
// in the same directory, the temp file is fsynced before the atomic
// rename, and the directory itself is fsynced after, so a crash at any
// instant leaves either the old file, the new file, or an ignorable
// *.tmp — never a half-written model under the final name. The directory
// sync is deferred so it also covers error returns: a save that fails on
// version N must not leave versions 1..N-1 renamed but undurable. A nil
// return means every version is durable; TestSaveStoreCrashConsistency
// checks all of this at every crash point.
func SaveStore(st *Store, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("serving: creating %s: %w", dir, err)
	}
	return saveStore(osOps{}, st, dir)
}

// fileOps is the file-system seam a save writes through. osOps is the one
// real implementation; the crash-consistency test drives saveStore through
// a recording fake.
type fileOps interface {
	create(path string) (storeFile, error) // write-only, created or truncated
	exists(path string) bool               // false also when it cannot tell
	openDir(dir string) (storeDir, error)
	rename(from, to string) error
	remove(path string) error
}

// storeFile is the part of *os.File a save writes a model through.
type storeFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// storeDir is the part of *os.File a directory sync uses.
type storeDir interface {
	Sync() error
	Close() error
}

type osOps struct{}

func (osOps) create(path string) (storeFile, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osOps) openDir(dir string) (storeDir, error) {
	d, err := os.Open(dir)
	if err != nil {
		return nil, err
	}
	return d, nil
}

func (osOps) exists(path string) bool {
	_, err := os.Lstat(path)
	return err == nil
}

func (osOps) rename(from, to string) error { return os.Rename(from, to) }
func (osOps) remove(path string) error     { return os.Remove(path) }

// saveStore is SaveStore past the MkdirAll, writing through ops.
func saveStore(ops fileOps, st *Store, dir string) (err error) {
	defer func() {
		if serr := syncDir(ops, dir); err == nil {
			err = serr
		}
	}()
	st.mu.Lock()
	models := append([]Model(nil), st.models...)
	files := maps.Clone(st.files)
	st.mu.Unlock()
	for _, m := range models {
		if !core.IsScoutpack(m.Snapshot) {
			return fmt.Errorf("serving: v%d is not a scoutpack snapshot; the store directory holds only scoutpacks (publish Scout.SnapshotPack)", m.Version)
		}
		path := filepath.Join(dir, fmt.Sprintf("model-%06d.pack", m.Version))
		if files[m.Version] == path && ops.exists(path) {
			continue
		}
		if err := writePackFile(ops, path, m); err != nil {
			return err
		}
		st.recordFile(m.Version, path)
	}
	return nil
}

// recordFile notes that version v's bytes are in the store file at path.
func (st *Store) recordFile(v int, path string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.files == nil {
		st.files = map[int]string{}
	}
	st.files[v] = path
}

// timeLayout serializes TrainedAt in the pack envelope exactly as
// encoding/json serializes time.Time.
const timeLayout = "2006-01-02T15:04:05.999999999Z07:00"

// writeFileSync writes data to path through a same-directory temp file,
// fsyncing the file before the rename commits it.
func writeFileSync(ops fileOps, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := ops.create(tmp)
	if err != nil {
		return fmt.Errorf("serving: writing %s: %w", tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		ops.remove(tmp)
		return fmt.Errorf("serving: writing %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		ops.remove(tmp)
		return fmt.Errorf("serving: syncing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		ops.remove(tmp)
		return fmt.Errorf("serving: closing %s: %w", tmp, err)
	}
	if err := ops.rename(tmp, path); err != nil {
		ops.remove(tmp)
		return fmt.Errorf("serving: committing %s: %w", path, err)
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
// Its error is returned, not swallowed: until the directory sync
// completes, a rename may vanish in a crash, so a save whose directory
// sync failed has not made its new versions durable and must say so.
func syncDir(ops fileOps, dir string) error {
	d, err := ops.openDir(dir)
	if err != nil {
		return fmt.Errorf("serving: syncing %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("serving: syncing %s: %w", dir, err)
	}
	return nil
}

// LoadReport says what LoadStore found: which versions it loaded, and
// which files it quarantined (set aside with reasons) instead of failing
// the whole load — one rotten version must not take down a store holding
// good ones.
type LoadReport struct {
	Loaded      []int             `json:"loaded"`
	Quarantined []QuarantinedFile `json:"quarantined,omitempty"`
}

// QuarantinedFile is one model file the store refused to load. The file
// is renamed to <name>.quarantined so the next save or load does not trip
// over it again; Renamed is false if the rename itself failed.
type QuarantinedFile struct {
	Name    string `json:"name"`
	Reason  string `json:"reason"`
	Renamed bool   `json:"renamed"`
}

// DefaultEagerVersions is how many healthy versions LoadStore holds: the
// latest (what Reload serves) plus one rollback candidate. Older files are
// never opened, so a store directory holding months of history costs two
// file reads at boot, not a full-directory parse.
const DefaultEagerVersions = 2

// OpenStore is LoadStore for a command: it logs each file the load
// quarantined, by name and reason, in place of returning the report.
func OpenStore(dir string, logger *log.Logger) (*Store, error) {
	st, rep, err := LoadStore(dir)
	if err != nil {
		return nil, err
	}
	for _, q := range rep.Quarantined {
		logger.Printf("store: quarantined %s: %s", q.Name, q.Reason)
	}
	return st, nil
}

// LoadStore reads a directory written by SaveStore back into a Store. It
// walks the model-%06d.pack files newest first, reading and verifying
// each, and stops once it holds DefaultEagerVersions healthy versions.
// A file that fails to read, decode, or checksum on the way is
// quarantined — renamed to *.quarantined and listed in the report — and
// the walk goes on to the next older file; gaps in the version sequence
// are tolerated for the same reason. A model-%06d.json file (the retired
// JSON disk format) is quarantined with that reason, and any other name
// is a foreign file and skipped. The store numbers its next version past
// every model-%06d.pack and model-%06d.pack.quarantined name listed, so a
// publish never reuses a quarantined version's number. The error is
// non-nil only when the directory itself cannot be read.
func LoadStore(dir string) (*Store, *LoadReport, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("serving: reading %s: %w", dir, err)
	}
	type vf struct {
		v    int
		name string
	}
	st := NewStore()
	rep := &LoadReport{}
	var files []vf
	for _, e := range entries {
		name := e.Name()
		if v, ok := storeFileVersion(name, ".pack"); ok {
			files = append(files, vf{v, name})
			st.top = max(st.top, v)
		} else if v, ok := storeFileVersion(name, ".pack.quarantined"); ok {
			st.top = max(st.top, v)
		} else if _, ok := storeFileVersion(name, ".json"); ok {
			rep.Quarantined = append(rep.Quarantined, quarantineFile(filepath.Join(dir, name),
				"JSON store file: the format is retired and never loaded; republish the model as a scoutpack"))
		}
	}
	slices.SortFunc(files, func(a, b vf) int { return b.v - a.v })

	for _, f := range files {
		if len(st.models) == DefaultEagerVersions {
			break
		}
		path := filepath.Join(dir, f.name)
		m, reason := loadModelFile(path, f.v)
		if reason != "" {
			rep.Quarantined = append(rep.Quarantined, quarantineFile(path, reason))
			continue
		}
		st.models = slices.Insert(st.models, 0, m)
		st.recordFile(m.Version, path)
		rep.Loaded = slices.Insert(rep.Loaded, 0, m.Version)
	}
	return st, rep, nil
}

// storeFileVersion parses the version out of a store file name,
// model-%06d<ext>. Any other spelling of a number — a sign, too few
// digits, a leading zero past six — is not a store name.
func storeFileVersion(name, ext string) (int, bool) {
	num, ok := strings.CutPrefix(name, "model-")
	if !ok {
		return 0, false
	}
	if num, ok = strings.CutSuffix(num, ext); !ok {
		return 0, false
	}
	v, err := strconv.Atoi(num)
	return v, err == nil && v >= 0 && fmt.Sprintf("%06d", v) == num
}

// quarantineFile renames a refused model file to <name>.quarantined and
// returns the report entry.
func quarantineFile(path, reason string) QuarantinedFile {
	q := QuarantinedFile{Name: filepath.Base(path), Reason: reason}
	q.Renamed = os.Rename(path, path+".quarantined") == nil
	return q
}

// writePackFile writes one scoutpack model to path, crash-safe.
func writePackFile(ops fileOps, path string, m Model) error {
	data, err := encodePackFile(m)
	if err != nil {
		return err
	}
	return writeFileSync(ops, path, data)
}

// encodePackFile renders one model as the bytes of its .pack file — the
// inverse of decodePackFile.
func encodePackFile(m Model) ([]byte, error) {
	meta, err := json.Marshal(packMeta{
		Version:   m.Version,
		Team:      m.Team,
		TrainedAt: m.TrainedAt.Format(timeLayout),
		Checksum:  checksumOf(m.Snapshot),
	})
	if err != nil {
		return nil, fmt.Errorf("serving: enveloping v%d: %w", m.Version, err)
	}
	data := append([]byte(nil), packEnvelopeMagic...)
	data = binary.LittleEndian.AppendUint32(data, uint32(len(meta)))
	data = append(data, meta...)
	return append(data, m.Snapshot...), nil
}

// ReadModelFile reads and fully verifies one .pack model file, without
// going through a Store — `scoutctl inspect` uses it on files directly. A
// store-named file must contain the version its name claims; any other
// name trusts the embedded version.
func ReadModelFile(path string) (Model, error) {
	base := filepath.Base(path)
	want, ok := storeFileVersion(base, ".pack")
	if !ok {
		want = -1
	}
	m, reason := loadModelFile(path, want)
	if reason != "" {
		return Model{}, fmt.Errorf("serving: %s: %s", base, reason)
	}
	return m, nil
}

// loadModelFile reads and fully verifies one model file. It returns the
// model, or a non-empty quarantine reason.
func loadModelFile(path string, wantVersion int) (Model, string) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Model{}, "read: " + err.Error()
	}
	return decodePackFile(data, wantVersion)
}

// decodePackFile verifies and decodes a .pack file's bytes; a negative
// wantVersion accepts whatever version the file carries.
func decodePackFile(data []byte, wantVersion int) (Model, string) {
	if len(data) < 8 || string(data[:4]) != packEnvelopeMagic {
		return Model{}, "malformed pack envelope"
	}
	metaLen := int(binary.LittleEndian.Uint32(data[4:]))
	if metaLen < 0 || metaLen > len(data)-8 {
		return Model{}, "pack envelope meta length overruns file"
	}
	var meta packMeta
	if err := json.Unmarshal(data[8:8+metaLen], &meta); err != nil {
		return Model{}, "decoding pack meta: " + err.Error()
	}
	payload := data[8+metaLen:]
	if got := checksumOf(payload); got != meta.Checksum {
		return Model{}, fmt.Sprintf("checksum mismatch: file says %s, content is %s", meta.Checksum, got)
	}
	if wantVersion >= 0 && meta.Version != wantVersion {
		return Model{}, fmt.Sprintf("file claims v%d but contains v%d", wantVersion, meta.Version)
	}
	// The payload must be a structurally-sound scoutpack: its own
	// envelope (magic, version, inner sha256) is verified here so a
	// damaged snapshot quarantines at load, not at Restore.
	if err := core.VerifyScoutpack(payload); err != nil {
		return Model{}, "scoutpack payload: " + err.Error()
	}
	m := Model{Version: meta.Version, Team: meta.Team, Snapshot: payload}
	if meta.TrainedAt != "" {
		if err := m.TrainedAt.UnmarshalText([]byte(meta.TrainedAt)); err != nil {
			return Model{}, "decoding pack meta time: " + err.Error()
		}
	}
	return m, ""
}
