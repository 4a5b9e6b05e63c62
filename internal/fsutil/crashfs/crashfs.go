// Package crashfs is an in-memory filesystem that models POSIX crash
// and durability semantics for exhaustive crash-consistency testing,
// in the spirit of ALICE and CrashMonkey. It implements fsutil.FS, so
// rmscaled's stores run against it unmodified, and it
// records a linearized trace of every durability-relevant operation.
//
// The model, per file: content has a buffered state (what readers see
// now) and a synced state (what survives a crash); Sync promotes
// buffered to synced. Per directory: the entry table likewise has a
// live and a synced snapshot; creating, renaming or removing an entry
// is immediately visible but volatile until SyncDir on the parent
// commits the entry table. Rename is atomic — a crash never leaves
// half a rename — but the renamed entry can revert to its pre-rename
// binding if the parent directory was never synced. Directory
// creation (MkdirAll) is deliberately modeled as durable immediately:
// the module creates directories once at startup and always before
// the first write into them, so enumerating their loss adds states
// without adding information.
//
// Crash injection is prefix-exact: New with Options.CrashAt = n
// aborts the n-th recorded op (1-based) by panicking with a sentinel
// that Catch recovers, leaving exactly n-1 ops applied. After the
// crash every subsequent operation fails with an error instead of
// panicking again, so cleanup code unwinding through defers cannot
// mutate the post-crash state. Materialize then builds the disk as it
// could look after the crash, in several variants: the pessimal image
// (all unsynced state lost), the flushed image (the kernel wrote
// everything back just in time), and — when the crashed op left an
// unsynced append tail — torn images keeping 1..k sectors of the tail
// plus a garbled image whose final sector holds corrupted bytes.
package crashfs

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	//lint:allow nokernelgoroutines crashfs is shared by the component under test and the harness checking it; a mutex over the op trace is test plumbing, not simulation concurrency
	"sync"

	"rmscale/internal/fsutil"
)

// OpKind enumerates the durability-relevant operations the trace
// records. Close and Chmod are deliberately not ops: neither changes
// what survives a crash.
type OpKind int

const (
	OpCreate OpKind = iota
	OpWrite
	OpSync
	OpTruncate
	OpRename
	OpRemove
	OpSyncDir
)

func (k OpKind) String() string {
	switch k {
	case OpCreate:
		return "create"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpTruncate:
		return "truncate"
	case OpRename:
		return "rename"
	case OpRemove:
		return "remove"
	case OpSyncDir:
		return "syncdir"
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// Op is one recorded trace entry.
type Op struct {
	Kind OpKind
	Path string // primary path (rename: destination in Aux)
	Aux  string // rename destination
	N    int    // write length
}

func (o Op) String() string {
	switch o.Kind {
	case OpRename:
		return fmt.Sprintf("rename %s -> %s", o.Path, o.Aux)
	case OpWrite:
		return fmt.Sprintf("write %s (%d bytes)", o.Path, o.N)
	}
	return fmt.Sprintf("%s %s", o.Kind, o.Path)
}

// Options parameterize a crashfs instance.
type Options struct {
	// Sector is the torn-append granularity in bytes; <= 0 means 64.
	Sector int
	// CrashAt, when > 0, crashes the filesystem in place of the
	// CrashAt-th recorded op (1-based): exactly CrashAt-1 ops apply.
	// 0 or negative never crashes.
	CrashAt int
	// DropDirSyncs makes SyncDir record its op but persist nothing —
	// simulating a filesystem (or a buggy caller) on which directory
	// entries never become durable. The crash harness uses it to
	// prove it would catch removal of the parent-dir fsync in
	// fsutil.WriteAtomic.
	DropDirSyncs bool
}

// inode is one file: buffered content and the synced prefix of it
// that survives a crash.
type inode struct {
	data   []byte
	synced []byte
	perm   os.FileMode
}

// dirNode is one directory: the live entry table and the snapshot of
// it committed by the last SyncDir.
type dirNode struct {
	entries map[string]*inode
	synced  map[string]*inode
}

func newDirNode() *dirNode {
	return &dirNode{entries: map[string]*inode{}, synced: map[string]*inode{}}
}

// FS is the simulated filesystem. It is safe for concurrent use,
// though crash enumeration is only meaningful over a deterministic
// single-goroutine workload.
type FS struct {
	opts Options

	mu        sync.Mutex
	dirs      map[string]*dirNode
	ops       []Op
	crashed   bool
	lastWrite *inode // target of the most recent OpWrite, for torn variants
}

// New returns an empty crashfs with options applied.
func New(opts Options) *FS {
	if opts.Sector <= 0 {
		opts.Sector = 64
	}
	return &FS{opts: opts, dirs: map[string]*dirNode{"/": newDirNode()}}
}

// crashError is the sentinel panic payload Catch recovers.
type crashError struct{ op Op }

func (e *crashError) Error() string {
	return fmt.Sprintf("crashfs: simulated crash at %s", e.op)
}

// Catch runs fn and recovers the simulated crash, reporting whether
// one occurred. Panics other than the crash sentinel propagate.
func Catch(fn func()) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(*crashError); ok {
				crashed = true
				return
			}
			panic(r)
		}
	}()
	fn()
	return false
}

// errCrashed is what every operation returns once the crash fired.
var errCrashed = fmt.Errorf("crashfs: filesystem crashed")

// step records op, or fires the armed crash in its place. Callers
// hold f.mu (released by their defers as the panic unwinds).
func (f *FS) step(op Op) {
	if f.opts.CrashAt > 0 && len(f.ops)+1 == f.opts.CrashAt {
		f.crashed = true
		panic(&crashError{op})
	}
	f.ops = append(f.ops, op)
}

func clean(name string) string { return filepath.Clean(name) }

// dir returns the directory holding name, or nil.
func (f *FS) dir(name string) *dirNode { return f.dirs[filepath.Dir(name)] }

func notExist(name string) error {
	return fmt.Errorf("crashfs: %s: %w", name, os.ErrNotExist)
}

// OpCount reports how many ops the trace holds.
func (f *FS) OpCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.ops)
}

// file is an open handle; operations route back through the FS so the
// trace stays linearized.
type file struct {
	fs   *FS
	ino  *inode
	name string
}

func (h *file) Name() string { return h.name }
func (h *file) Close() error { return nil }

func (h *file) Write(b []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.crashed {
		return 0, errCrashed
	}
	h.fs.step(Op{Kind: OpWrite, Path: h.name, N: len(b)})
	h.ino.data = append(h.ino.data, b...)
	h.fs.lastWrite = h.ino
	return len(b), nil
}

func (h *file) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.crashed {
		return errCrashed
	}
	h.fs.step(Op{Kind: OpSync, Path: h.name})
	h.ino.synced = append([]byte(nil), h.ino.data...)
	return nil
}

// Overwrite replaces len(b) bytes of name's buffered content at off
// in place, as a decaying disk or a stray writer would. It is recorded
// as a write op and, like any write, survives a crash only once the
// file is synced. The range must lie inside the file.
func (f *FS) Overwrite(name string, off int, b []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return errCrashed
	}
	name = clean(name)
	d := f.dir(name)
	if d == nil || d.entries[filepath.Base(name)] == nil {
		return notExist(name)
	}
	ino := d.entries[filepath.Base(name)]
	if off < 0 || off+len(b) > len(ino.data) {
		return fmt.Errorf("crashfs: overwrite %s [%d, %d) outside its %d bytes", name, off, off+len(b), len(ino.data))
	}
	f.step(Op{Kind: OpWrite, Path: name, N: len(b)})
	copy(ino.data[off:], b)
	f.lastWrite = ino
	return nil
}

// OpenFile implements fsutil.FS for the flag subset the module uses.
func (f *FS) OpenFile(name string, flag int, perm os.FileMode) (fsutil.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, errCrashed
	}
	name = clean(name)
	d := f.dir(name)
	if d == nil {
		return nil, notExist(filepath.Dir(name))
	}
	base := filepath.Base(name)
	ino := d.entries[base]
	if ino == nil {
		if flag&os.O_CREATE == 0 {
			return nil, notExist(name)
		}
		f.step(Op{Kind: OpCreate, Path: name})
		ino = &inode{perm: perm}
		d.entries[base] = ino
	} else if flag&os.O_TRUNC != 0 && len(ino.data) > 0 {
		f.step(Op{Kind: OpTruncate, Path: name})
		ino.data = nil
	}
	return &file{fs: f, ino: ino, name: name}, nil
}

// ReadFile returns the buffered content of name.
func (f *FS) ReadFile(name string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, errCrashed
	}
	name = clean(name)
	d := f.dir(name)
	if d == nil {
		return nil, notExist(name)
	}
	ino := d.entries[filepath.Base(name)]
	if ino == nil {
		return nil, notExist(name)
	}
	return append([]byte(nil), ino.data...), nil
}

// ReadDir lists files and immediate subdirectories of dir, sorted.
func (f *FS) ReadDir(dir string) ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, errCrashed
	}
	dir = clean(dir)
	d := f.dirs[dir]
	if d == nil {
		return nil, notExist(dir)
	}
	var names []string
	for name := range d.entries { //lint:orderindependent names are sorted before returning
		names = append(names, name)
	}
	for p := range f.dirs { //lint:orderindependent names are sorted before returning
		if filepath.Dir(p) == dir && p != dir {
			names = append(names, filepath.Base(p))
		}
	}
	sort.Strings(names)
	return names, nil
}

// MkdirAll creates dir and missing parents; modeled durable
// immediately (see the package comment).
func (f *FS) MkdirAll(dir string, perm os.FileMode) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return errCrashed
	}
	dir = clean(dir)
	for p := dir; ; p = filepath.Dir(p) {
		if f.dirs[p] == nil {
			f.dirs[p] = newDirNode()
		}
		if p == filepath.Dir(p) {
			break
		}
	}
	return nil
}

// Rename atomically rebinds oldpath's inode to newpath. The rebinding
// is volatile until the parent directories are synced.
func (f *FS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return errCrashed
	}
	oldpath, newpath = clean(oldpath), clean(newpath)
	od, nd := f.dir(oldpath), f.dir(newpath)
	if od == nil || od.entries[filepath.Base(oldpath)] == nil {
		return notExist(oldpath)
	}
	if nd == nil {
		return notExist(filepath.Dir(newpath))
	}
	if f.dirs[newpath] != nil {
		return fmt.Errorf("crashfs: rename %s onto directory %s", oldpath, newpath)
	}
	f.step(Op{Kind: OpRename, Path: oldpath, Aux: newpath})
	ino := od.entries[filepath.Base(oldpath)]
	delete(od.entries, filepath.Base(oldpath))
	nd.entries[filepath.Base(newpath)] = ino
	return nil
}

// Remove deletes the file entry; the deletion is volatile until the
// parent directory is synced.
func (f *FS) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return errCrashed
	}
	name = clean(name)
	d := f.dir(name)
	if d == nil || d.entries[filepath.Base(name)] == nil {
		return notExist(name)
	}
	f.step(Op{Kind: OpRemove, Path: name})
	delete(d.entries, filepath.Base(name))
	return nil
}

// Chmod sets permission bits; not a durability op, so not traced.
func (f *FS) Chmod(name string, mode os.FileMode) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return errCrashed
	}
	name = clean(name)
	d := f.dir(name)
	if d == nil || d.entries[filepath.Base(name)] == nil {
		return notExist(name)
	}
	d.entries[filepath.Base(name)].perm = mode
	return nil
}

// SyncDir commits dir's entry table: entries created, renamed or
// removed before this point survive a crash (their content still only
// to its own synced extent).
func (f *FS) SyncDir(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return errCrashed
	}
	dir = clean(dir)
	d := f.dirs[dir]
	if d == nil {
		return notExist(dir)
	}
	f.step(Op{Kind: OpSyncDir, Path: dir})
	if f.opts.DropDirSyncs {
		return nil
	}
	snap := make(map[string]*inode, len(d.entries))
	for name, ino := range d.entries { //lint:orderindependent copying a map into a map; no order-sensitive output
		snap[name] = ino
	}
	d.synced = snap
	return nil
}

// WriteFileAtomic runs the production atomic-write sequence over this
// FS, so the crash harness explores exactly the op pattern RealFS
// issues.
func (f *FS) WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	return fsutil.WriteAtomic(f, path, data, perm)
}

// AppendSync runs the production append sequence over this FS.
func (f *FS) AppendSync(h fsutil.File, b []byte) error { return fsutil.Append(h, b) }

// Variant names one materializable post-crash disk image.
type Variant struct {
	// Name labels the image in reports: "pessimal", "flushed",
	// "torn-<j>", "garbled".
	Name string

	keepUnsynced bool
	tornSectors  int
	garble       bool
}

// Variants enumerates the post-crash images worth checking for the
// current trace: pessimal and flushed always, and when the most
// recently written file carries an unsynced append tail, torn images
// keeping 1..min(k, maxTorn) sectors of it plus a garbled image whose
// final sector is corrupted. maxTorn <= 0 means 3.
func (f *FS) Variants(maxTorn int) []Variant {
	if maxTorn <= 0 {
		maxTorn = 3
	}
	vs := []Variant{{Name: "pessimal"}, {Name: "flushed", keepUnsynced: true}}
	f.mu.Lock()
	tail := len(f.tornTailLocked())
	f.mu.Unlock()
	if tail == 0 {
		return vs
	}
	sectors := (tail + f.opts.Sector - 1) / f.opts.Sector
	for j := 1; j <= sectors && j <= maxTorn; j++ {
		vs = append(vs, Variant{Name: fmt.Sprintf("torn-%d", j), tornSectors: j})
	}
	return append(vs, Variant{Name: "garbled", tornSectors: sectors, garble: true})
}

// tornTailLocked returns the unsynced append tail of the most
// recently written file, or nil when there is none or the file was
// rewritten rather than appended (a torn image of a rewrite is not an
// append prefix, and the pessimal/flushed pair already brackets it).
func (f *FS) tornTailLocked() []byte {
	ino := f.lastWrite
	if ino == nil || len(ino.data) <= len(ino.synced) {
		return nil
	}
	for i := range ino.synced {
		if ino.data[i] != ino.synced[i] {
			return nil
		}
	}
	return ino.data[len(ino.synced):]
}

// Materialize builds a fresh, fully-synced crashfs holding the disk
// image the variant describes for the current crash state. The
// original is left untouched, so one crash state can materialize any
// number of variants independently.
func (f *FS) Materialize(v Variant) *FS {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := New(Options{Sector: f.opts.Sector})
	tornTail := f.tornTailLocked()
	for dpath, d := range f.dirs { //lint:orderindependent building one map-backed FS from another; no order-sensitive output
		nd := newDirNode()
		out.dirs[dpath] = nd
		src := d.synced
		if v.keepUnsynced {
			src = d.entries
		}
		for name, ino := range src { //lint:orderindependent building one map-backed FS from another; no order-sensitive output
			content := ino.synced
			if v.keepUnsynced {
				content = ino.data
			} else if v.tornSectors > 0 && ino == f.lastWrite && len(tornTail) > 0 {
				keep := v.tornSectors * f.opts.Sector
				if keep > len(tornTail) {
					keep = len(tornTail)
				}
				torn := append(append([]byte(nil), ino.synced...), tornTail[:keep]...)
				if v.garble && keep > 0 {
					g := f.opts.Sector
					if g > keep {
						g = keep
					}
					for i := len(torn) - g; i < len(torn); i++ {
						torn[i] ^= 0xA5
					}
				}
				content = torn
			}
			c := append([]byte(nil), content...)
			nd.entries[name] = &inode{data: c, synced: append([]byte(nil), c...), perm: ino.perm}
		}
		for name, ino := range nd.entries { //lint:orderindependent copying a map into a map; no order-sensitive output
			nd.synced[name] = ino
		}
	}
	return out
}

// Snapshot returns path -> buffered content for every file, the
// byte-level disk image used by the recovery-idempotence check.
func (f *FS) Snapshot() map[string][]byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := map[string][]byte{}
	for dpath, d := range f.dirs { //lint:orderindependent building a map keyed by full path; no order-sensitive output
		for name, ino := range d.entries { //lint:orderindependent building a map keyed by full path; no order-sensitive output
			out[filepath.Join(dpath, name)] = append([]byte(nil), ino.data...)
		}
	}
	return out
}
