package serving

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// The crash model is that of Pillai et al., "All File Systems Are Not
// Created Equal" (OSDI 2014), reduced to what POSIX promises:
//
//   - a file's data is durable once a Sync of the file completes; data
//     written since may be lost at a crash, or cut to a prefix;
//   - a directory operation (create, rename, remove) is durable once a
//     sync of its directory completes; until then each one independently
//     persists or not;
//   - any operation may fail, and a failed operation changes nothing.
//
// crashFS is a fileOps fake over one directory, whose entries it keys by
// base name. It records every operation and the state before it, so a
// test can crash a save at each of those points and rebuild every
// directory the model permits.
type crashFS struct {
	failAt  int       // the index of the operation that fails; -1 for none
	ops     []string  // every operation issued, in order
	states  []fsState // states[i] is the state before ops[i]
	state   fsState
	renamed []int // versions whose rename to model-%06d.pack returned nil
}

// fsState is the file system at one instant. Inode contents are never
// mutated in place, so a shallow clone is a snapshot.
type fsState struct {
	inodes  []inode
	live    map[string]int // the directory as the running process sees it
	durable map[string]int // the directory as of the last completed directory sync
	pending []dirOp        // directory operations since then, in issue order
}

// inode is one file's content as of its last completed Sync, and now.
type inode struct{ synced, data []byte }

// dirOp is one atomic directory operation: the names it binds to an
// inode, or unbinds (inode -1). A rename binds its target and unbinds its
// source in one step.
type dirOp []binding

type binding struct {
	name  string
	inode int
}

func (s fsState) clone() fsState {
	return fsState{
		inodes:  slices.Clone(s.inodes),
		live:    maps.Clone(s.live),
		durable: maps.Clone(s.durable),
		pending: slices.Clone(s.pending),
	}
}

func applyDirOp(dir map[string]int, op dirOp) {
	for _, b := range op {
		if b.inode < 0 {
			delete(dir, b.name)
		} else {
			dir[b.name] = b.inode
		}
	}
}

var errInjected = errors.New("injected failure")

// do records one operation and the state before it, and fails it if it is
// the one chosen to fail.
func (fs *crashFS) do(op string) error {
	fs.states = append(fs.states, fs.state.clone())
	fs.ops = append(fs.ops, op)
	if len(fs.ops)-1 == fs.failAt {
		return errInjected
	}
	return nil
}

func (fs *crashFS) dirOp(op dirOp) {
	applyDirOp(fs.state.live, op)
	fs.state.pending = append(fs.state.pending, op)
}

func (fs *crashFS) create(path string) (storeFile, error) {
	name := filepath.Base(path)
	if err := fs.do("create " + name); err != nil {
		return nil, err
	}
	fs.state.inodes = append(fs.state.inodes, inode{})
	ino := len(fs.state.inodes) - 1
	fs.dirOp(dirOp{{name, ino}})
	return &crashFile{fs: fs, ino: ino, name: name}, nil
}

func (fs *crashFS) openDir(string) (storeDir, error) {
	if err := fs.do("opendir"); err != nil {
		return nil, err
	}
	return crashDir{fs}, nil
}

func (fs *crashFS) rename(from, to string) error {
	src, dst := filepath.Base(from), filepath.Base(to)
	if err := fs.do("rename " + src + " " + dst); err != nil {
		return err
	}
	ino, ok := fs.state.live[src]
	if !ok {
		return os.ErrNotExist
	}
	fs.dirOp(dirOp{{dst, ino}, {src, -1}})
	if v, ok := storeFileVersion(dst, ".pack"); ok {
		fs.renamed = append(fs.renamed, v)
	}
	return nil
}

func (fs *crashFS) remove(path string) error {
	name := filepath.Base(path)
	if err := fs.do("remove " + name); err != nil {
		return err
	}
	if _, ok := fs.state.live[name]; !ok {
		return os.ErrNotExist
	}
	fs.dirOp(dirOp{{name, -1}})
	return nil
}

type crashFile struct {
	fs   *crashFS
	ino  int
	name string
}

func (f *crashFile) Write(p []byte) (int, error) {
	if err := f.fs.do("write " + f.name); err != nil {
		return 0, err
	}
	in := &f.fs.state.inodes[f.ino]
	in.data = append(slices.Clip(in.data), p...)
	return len(p), nil
}

func (f *crashFile) Sync() error {
	if err := f.fs.do("sync " + f.name); err != nil {
		return err
	}
	in := &f.fs.state.inodes[f.ino]
	in.synced = in.data
	return nil
}

func (f *crashFile) Close() error { return f.fs.do("close " + f.name) }

type crashDir struct{ fs *crashFS }

func (d crashDir) Sync() error {
	if err := d.fs.do("syncdir"); err != nil {
		return err
	}
	d.fs.state.durable = maps.Clone(d.fs.state.live)
	d.fs.state.pending = nil
	return nil
}

func (d crashDir) Close() error { return d.fs.do("closedir") }

// outcome is one directory a crash may leave, sorted by name.
type outcome []storedFile

type storedFile struct {
	name string
	data []byte
}

func (o outcome) key() string {
	var b strings.Builder
	for _, f := range o {
		fmt.Fprintf(&b, "%s\x00%d\x00%s\x00", f.name, len(f.data), f.data)
	}
	return b.String()
}

func (o outcome) String() string {
	parts := make([]string, len(o))
	for i, f := range o {
		parts[i] = fmt.Sprintf("%s (%d B)", f.name, len(f.data))
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// outcomes returns, without duplicates, every directory a crash in state
// s may leave: any subset of the pending directory operations applied in
// issue order to the durable directory, and every file whose data is not
// synced lost, cut to half, or whole.
func (s fsState) outcomes() []outcome {
	dirs := []map[string]int{s.durable}
	seen := map[string]bool{fmt.Sprint(s.durable): true}
	for _, op := range s.pending {
		for _, d := range dirs { // the range is over the dirs before this op
			next := maps.Clone(d)
			applyDirOp(next, op)
			if k := fmt.Sprint(next); !seen[k] {
				seen[k] = true
				dirs = append(dirs, next)
			}
		}
	}
	var out []outcome
	keys := map[string]bool{}
	for _, d := range dirs {
		names := make([]string, 0, len(d))
		for n := range d {
			names = append(names, n)
		}
		slices.Sort(names)
		var inos []int
		for _, n := range names {
			if !slices.Contains(inos, d[n]) {
				inos = append(inos, d[n])
			}
		}
		content := map[int][]byte{}
		var walk func(k int)
		walk = func(k int) {
			if k == len(inos) {
				o := make(outcome, len(names))
				for i, n := range names {
					o[i] = storedFile{n, content[d[n]]}
				}
				if k := o.key(); !keys[k] {
					keys[k] = true
					out = append(out, o)
				}
				return
			}
			in := s.inodes[inos[k]]
			choices := [][]byte{in.data}
			if !bytes.Equal(in.synced, in.data) {
				choices = append(choices, in.synced, in.data[:len(in.data)/2])
			}
			for _, c := range choices {
				content[inos[k]] = c
				walk(k + 1)
			}
		}
		walk(0)
	}
	return out
}

// loaded is what LoadStore and a Get of every version make of an outcome.
type loaded struct {
	err         error
	quarantined []string
	models      map[int][]byte // version → its model re-encoded as a .pack file
}

// load writes an outcome into a fresh directory under root, loads it and
// reads every version back with Get.
func load(root string, o outcome) *loaded {
	dir, err := os.MkdirTemp(root, "crash")
	if err != nil {
		return &loaded{err: err}
	}
	defer os.RemoveAll(dir)
	for _, f := range o {
		if err := os.WriteFile(filepath.Join(dir, f.name), f.data, 0o644); err != nil {
			return &loaded{err: err}
		}
	}
	st, rep, err := LoadStore(dir)
	if err != nil {
		return &loaded{err: err}
	}
	l := &loaded{models: map[int][]byte{}}
	for _, q := range rep.Quarantined {
		l.quarantined = append(l.quarantined, q.Name+": "+q.Reason)
	}
	var versions []int
	for _, m := range st.models {
		versions = append(versions, m.Version)
	}
	for _, v := range versions {
		m, ok := st.Get(v)
		if !ok {
			continue // quarantined; reported below
		}
		if l.models[v], err = encodePackFile(m); err != nil {
			return &loaded{err: err}
		}
	}
	for _, q := range st.QuarantinedLazy() {
		l.quarantined = append(l.quarantined, q.Name+": "+q.Reason)
	}
	return l
}

// check returns what is wrong with a loaded outcome, or "". want holds
// every saved version's .pack file; versions 1..earlier were durable
// before the save; mustHave are the versions the save promised.
func (l *loaded) check(want map[int][]byte, earlier int, mustHave []int) string {
	if l.err != nil {
		return "LoadStore: " + l.err.Error()
	}
	if len(l.quarantined) > 0 {
		return "quarantined " + strings.Join(l.quarantined, "; ")
	}
	for v, got := range l.models {
		if !bytes.Equal(got, want[v]) {
			return fmt.Sprintf("v%d loads, but not as saved", v)
		}
	}
	for v := 1; v <= earlier; v++ {
		if l.models[v] == nil {
			return fmt.Sprintf("v%d, durable before the save, is gone", v)
		}
	}
	for _, v := range mustHave {
		if l.models[v] == nil {
			return fmt.Sprintf("v%d's rename completed before the save returned, and v%d is gone", v, v)
		}
	}
	return ""
}

// TestSaveStoreCrashConsistency crashes saveStore at every point the
// crash model above distinguishes — before each file-system operation,
// and after it returns — and under every injected failure of one
// operation. Each directory the model permits at each crash point is
// written out, loaded with LoadStore and read back with Get. Every one
// must load without error or quarantine, keep the versions that were
// durable before the save bit-identical, hold each new version whole or
// not at all, and — once saveStore has returned nil, or an error other
// than a failed directory sync — hold every version whose rename it
// completed. The test logs how many (crash point, outcome) pairs it
// checked.
func TestSaveStoreCrashConsistency(t *testing.T) {
	shapes := []struct {
		name           string
		earlier, added int
	}{
		// A publish as an offline trainer does it (scoutbench's retrain
		// cycle): load the store directory, add a version, save. Three
		// earlier versions put v1 past DefaultEagerVersions, so it is lazy.
		{"publish", 3, 1},
		// A first save, as scoutd's first boot does with one version. With
		// two, a version renamed before a later failure is new, so losing
		// it shows.
		{"first save", 0, 2},
	}
	clock := func() time.Time { return time.Date(2020, 8, 10, 12, 0, 0, 0, time.UTC) }
	root := t.TempDir()
	const storeDir = "store"
	cache := map[string]*loaded{}
	pairs, runs := 0, 0
	for _, sh := range shapes {
		earlierDir := filepath.Join(root, strings.ReplaceAll(sh.name, " ", "-"))
		if err := os.Mkdir(earlierDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if sh.earlier > 0 {
			st := NewStore()
			st.Now = clock
			for v := 1; v <= sh.earlier; v++ {
				st.Put("PhyNet", testPack(fmt.Sprintf("v%d", v)))
			}
			if err := SaveStore(st, earlierDir); err != nil {
				t.Fatal(err)
			}
		}
		storeToSave := func() *Store {
			st, rep, err := LoadStore(earlierDir)
			if err != nil {
				t.Fatal(err)
			}
			if wantLazy := max(sh.earlier-DefaultEagerVersions, 0); len(rep.Lazy) != wantLazy {
				t.Fatalf("%s: %d lazy versions, want %d", sh.name, len(rep.Lazy), wantLazy)
			}
			st.Now = clock
			for v := sh.earlier + 1; v <= sh.earlier+sh.added; v++ {
				st.Put("PhyNet", testPack(fmt.Sprintf("v%d", v)))
			}
			return st
		}

		// What each version's file must hold, and the directory the save
		// starts from: the earlier save's files, synced and durable.
		want := map[int][]byte{}
		initial := fsState{live: map[string]int{}, durable: map[string]int{}}
		entries, err := os.ReadDir(earlierDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(earlierDir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			initial.inodes = append(initial.inodes, inode{synced: data, data: data})
			initial.live[e.Name()] = len(initial.inodes) - 1
			initial.durable[e.Name()] = len(initial.inodes) - 1
		}
		for st, v := storeToSave(), 1; v <= sh.earlier+sh.added; v++ {
			m, ok := st.Get(v)
			if !ok {
				t.Fatalf("%s: v%d missing before the save", sh.name, v)
			}
			if want[v], err = encodePackFile(m); err != nil {
				t.Fatal(err)
			}
		}

		// The run without a failure first: its operation count bounds the
		// failures to inject.
		var clean []string
		for failAt := -1; failAt < len(clean); failAt++ {
			fs := &crashFS{failAt: failAt, state: initial.clone()}
			saveErr := saveStore(fs, storeToSave(), storeDir)
			runs++
			failure := "no failure"
			if failAt < 0 {
				if saveErr != nil {
					t.Fatalf("%s: saveStore: %v", sh.name, saveErr)
				}
				clean = fs.ops
			} else {
				failure = fmt.Sprintf("op %d (%s) failing", failAt, fs.ops[failAt])
			}
			// A failed directory sync leaves the renames before it
			// undurable; the save's error is then its only promise.
			mustHave := fs.renamed
			if saveErr != nil && failAt >= 0 && (fs.ops[failAt] == "opendir" || fs.ops[failAt] == "syncdir") {
				mustHave = nil
			}
			for i, s := range append(fs.states, fs.state) {
				point := fmt.Sprintf("crash after saveStore returned %v", saveErr)
				promised := mustHave
				if i < len(fs.ops) {
					point = fmt.Sprintf("crash before op %d (%s)", i, fs.ops[i])
					promised = nil
				}
				for _, o := range s.outcomes() {
					pairs++
					l := cache[o.key()]
					if l == nil {
						l = load(root, o)
						cache[o.key()] = l
					}
					if msg := l.check(want, sh.earlier, promised); msg != "" {
						t.Fatalf("%s, %s, %s, leaving %v: %s", sh.name, failure, point, o, msg)
					}
				}
			}
		}
	}
	t.Logf("checked %d (crash point, outcome) pairs over %d runs of saveStore; %d distinct directories loaded",
		pairs, runs, len(cache))
}
