package fsutil

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteFileAtomicRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := WriteFileAtomic(path, []byte("v1"), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "v1" {
		t.Fatalf("read %q, want %q", b, "v1")
	}
	// Overwrite replaces the whole content.
	if err := WriteFileAtomic(path, []byte("second"), 0o644); err != nil {
		t.Fatal(err)
	}
	b, _ = os.ReadFile(path)
	if string(b) != "second" {
		t.Fatalf("read %q after overwrite, want %q", b, "second")
	}
	// No temp-file litter left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
}

func TestWriteFileAtomicPerm(t *testing.T) {
	path := filepath.Join(t.TempDir(), "locked")
	if err := WriteFileAtomic(path, []byte("x"), 0o600); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := info.Mode().Perm(); got != 0o600 {
		t.Fatalf("perm %v, want 0600", got)
	}
}

func TestWriteFileAtomicMissingDir(t *testing.T) {
	err := WriteFileAtomic(filepath.Join(t.TempDir(), "no", "such", "dir", "f"), nil, 0o644)
	if err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}

// TestWriteFileAtomicRenameFailureCleansTemp pins the satellite fix:
// when the final rename fails (here: the destination is a directory),
// the temp file must not be left littering the parent directory.
func TestWriteFileAtomicRenameFailureCleansTemp(t *testing.T) {
	dir := t.TempDir()
	dest := filepath.Join(dir, "occupied")
	if err := os.MkdirAll(filepath.Join(dest, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(dest, []byte("x"), 0o644); err == nil {
		t.Fatal("rename onto a non-empty directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file %s left behind after rename failure", e.Name())
		}
	}
}

// traceFS records the op sequence WriteAtomic issues so the test can
// assert the durability-critical ordering without a real power cut.
type traceFS struct {
	RealFS
	ops []string
}

func (f *traceFS) Rename(oldpath, newpath string) error {
	f.ops = append(f.ops, "rename")
	return f.RealFS.Rename(oldpath, newpath)
}

func (f *traceFS) Remove(name string) error {
	f.ops = append(f.ops, "remove")
	return f.RealFS.Remove(name)
}

func (f *traceFS) SyncDir(dir string) error {
	f.ops = append(f.ops, "syncdir")
	return f.RealFS.SyncDir(dir)
}

// TestWriteAtomicSyncsParentDir pins the tentpole fix at the op
// level: the parent directory is fsynced after the rename, so the
// destination entry — not just its content — survives power loss.
func TestWriteAtomicSyncsParentDir(t *testing.T) {
	fs := &traceFS{}
	if err := WriteAtomic(fs, filepath.Join(t.TempDir(), "f"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if len(fs.ops) != 2 || fs.ops[0] != "rename" || fs.ops[1] != "syncdir" {
		t.Fatalf("op sequence %v, want [rename syncdir]", fs.ops)
	}
}

// errRenameFS fails every rename, for exercising the cleanup path
// through an arbitrary FS implementation.
type errRenameFS struct {
	RealFS
	removed []string
}

func (f *errRenameFS) Rename(string, string) error { return errors.New("injected rename failure") }
func (f *errRenameFS) Remove(name string) error {
	f.removed = append(f.removed, name)
	return f.RealFS.Remove(name)
}

func TestWriteAtomicRemovesTempOnInjectedRenameFailure(t *testing.T) {
	fs := &errRenameFS{}
	dir := t.TempDir()
	if err := WriteAtomic(fs, filepath.Join(dir, "f"), []byte("x"), 0o644); err == nil {
		t.Fatal("injected rename failure not surfaced")
	}
	want := filepath.Join(dir, ".f.tmp")
	if len(fs.removed) != 1 || fs.removed[0] != want {
		t.Fatalf("removed %v, want [%s]", fs.removed, want)
	}
}

func TestAppendSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := Append(f, []byte("a\n")); err != nil {
		t.Fatal(err)
	}
	if err := Append(f, []byte("b\n")); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "a\nb\n" {
		t.Fatalf("log content %q, want %q", b, "a\nb\n")
	}
}

func TestRealFSReadDirSorted(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []string{"b", "a", "c"} {
		if err := os.WriteFile(filepath.Join(dir, n), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	names, err := RealFS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || names[0] != "a" || names[1] != "b" || names[2] != "c" {
		t.Fatalf("ReadDir %v, want sorted [a b c]", names)
	}
}
