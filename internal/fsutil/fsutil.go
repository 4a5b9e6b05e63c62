// Package fsutil holds the module's durable-write primitives: the
// atomic whole-file write (temp file + fsync + rename + parent-dir
// fsync) and the synced append that makes each record of an
// append-only log an atomic commit point. The runner's disk cache and
// rmscaled's stores (its submission journal and its result store)
// share them instead of duplicating temp-file logic.
//
// The package also defines the op-level filesystem seam (FS, File)
// the stores write through. Production code passes RealFS
// (or nil, which callers default to RealFS); the crash-consistency
// harness passes internal/fsutil/crashfs, which records every op and
// can materialize the disk as it would look after a crash at any
// point, and the chaos harness wraps RealFS with scripted faults.
// Because WriteAtomic and Append are composed from FS ops, every
// implementation — real or simulated — executes the exact same op
// sequence, so a durability bug in the sequence is visible to the
// crash harness, not just to production.
package fsutil

import (
	"fmt"
	"os"
	"path/filepath"
)

// File is one open file handle of an FS: the write-side operations
// the stores need. *os.File satisfies it.
type File interface {
	Write(b []byte) (int, error)
	Sync() error
	Close() error
	Name() string
}

// FS is the injectable op-level filesystem seam. The stores perform
// every filesystem operation through an FS value
// instead of calling the os package directly, so fault-injection
// harnesses (internal/service/chaos) can script disk-full and
// flaky-write behaviour and the crash harness
// (internal/service/crash) can enumerate crash states — without
// touching a real filesystem knob.
//
// Durability contract implementations must model: File.Sync makes a
// file's current content survive a crash, but not its directory
// entry; Rename is atomic for readers yet the renamed entry is
// volatile until SyncDir on the parent; Remove is likewise volatile
// until SyncDir. MkdirAll is assumed durable immediately (directory
// creation is rare and always precedes the first write into it).
type FS interface {
	// OpenFile opens name with os.OpenFile semantics for the flag
	// subset the module uses (O_WRONLY|O_CREATE with O_APPEND or
	// O_TRUNC).
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// ReadFile returns the current (buffered, not necessarily synced)
	// content of name.
	ReadFile(name string) ([]byte, error)
	// ReadDir lists the entry names in dir, sorted.
	ReadDir(dir string) ([]string, error)
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string, perm os.FileMode) error
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes the named file.
	Remove(name string) error
	// Chmod sets the file's permission bits.
	Chmod(name string, mode os.FileMode) error
	// SyncDir fsyncs the directory itself, committing entry
	// creations, renames and removals inside it.
	SyncDir(dir string) error
	// WriteFileAtomic is the atomic whole-file write (WriteAtomic
	// composed over this FS, unless the FS injects faults).
	WriteFileAtomic(path string, data []byte, perm os.FileMode) error
	// AppendSync is the synced append commit point.
	AppendSync(f File, b []byte) error
}

// RealFS is the production FS: the os package.
type RealFS struct{}

// OpenFile implements FS via os.OpenFile.
func (RealFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// ReadFile implements FS via os.ReadFile.
func (RealFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// ReadDir implements FS via os.ReadDir (sorted by name).
func (RealFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names, nil
}

// MkdirAll implements FS via os.MkdirAll.
func (RealFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }

// Rename implements FS via os.Rename.
func (RealFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS via os.Remove.
func (RealFS) Remove(name string) error { return os.Remove(name) }

// Chmod implements FS via os.Chmod.
func (RealFS) Chmod(name string, mode os.FileMode) error { return os.Chmod(name, mode) }

// SyncDir opens the directory and fsyncs it, committing its entry
// table to stable storage.
func (RealFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// WriteFileAtomic implements FS with the shared atomic-write sequence.
func (RealFS) WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	return WriteAtomic(RealFS{}, path, data, perm)
}

// AppendSync implements FS with the shared append sequence.
func (RealFS) AppendSync(f File, b []byte) error { return Append(f, b) }

// WriteAtomic writes data to path through fsys so that readers never
// observe a partial file and the entry survives power loss: the bytes
// land in a temporary file in the same directory, are flushed to
// stable storage, are renamed over the destination, and the parent
// directory is then fsynced so the rename itself is durable — without
// that final step a "durably stored" file can vanish when the dir
// entry is lost with the page cache. An interrupted writer leaves
// either the old content or the new content, never a truncated mix,
// and the temp file is removed when any step before the rename fails.
//
// The temp name is a deterministic function of path (".<base>.tmp"),
// which keeps crash enumeration reproducible; callers serialize
// writes per destination path, as every user in this module already
// does.
func WriteAtomic(fsys FS, path string, data []byte, perm os.FileMode) error {
	fail := func(err error) error { return fmt.Errorf("fsutil: atomic write %s: %w", path, err) }
	dir := filepath.Dir(path)
	tmp := filepath.Join(dir, "."+filepath.Base(path)+".tmp")
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return fail(err)
	}
	renamed := false
	defer func() {
		if !renamed {
			_ = fsys.Remove(tmp)
		}
	}()
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fail(err)
	}
	if err := f.Close(); err != nil {
		return fail(err)
	}
	if err := fsys.Chmod(tmp, perm); err != nil {
		return fail(err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return fail(err)
	}
	renamed = true
	if err := fsys.SyncDir(dir); err != nil {
		return fail(err)
	}
	return nil
}

// Append appends b to f with a single write followed by an fsync.
// Used on an append-only log it makes each record a durable commit
// point: a crash mid-append leaves at most one truncated final
// record, and everything written before the last successful Append
// survives.
func Append(f File, b []byte) error {
	if _, err := f.Write(b); err != nil {
		return fmt.Errorf("fsutil: append %s: %w", f.Name(), err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("fsutil: sync %s: %w", f.Name(), err)
	}
	return nil
}

// WriteFileAtomic is WriteAtomic over the real filesystem.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	return WriteAtomic(RealFS{}, path, data, perm)
}
