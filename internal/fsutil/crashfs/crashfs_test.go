package crashfs

import (
	"bytes"
	"os"
	"testing"

	"rmscale/internal/fsutil"
)

func write(t *testing.T, fs *FS, path, content string) fsutil.File {
	t.Helper()
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(content)); err != nil {
		t.Fatal(err)
	}
	return f
}

func readOn(t *testing.T, fs *FS, path string) (string, bool) {
	t.Helper()
	b, err := fs.ReadFile(path)
	if err != nil {
		return "", false
	}
	return string(b), true
}

// TestUnsyncedContentLostOnPessimal: buffered writes vanish, synced
// writes survive.
func TestUnsyncedContentLostOnPessimal(t *testing.T) {
	fs := New(Options{})
	f := write(t, fs, "/a", "durable")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir("/"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("+buffered")); err != nil {
		t.Fatal(err)
	}
	disk := fs.Materialize(Variant{Name: "pessimal"})
	got, ok := readOn(t, disk, "/a")
	if !ok || got != "durable" {
		t.Fatalf("pessimal image holds %q, want %q", got, "durable")
	}
	flushed := fs.Materialize(Variant{Name: "flushed", keepUnsynced: true})
	got, _ = readOn(t, flushed, "/a")
	if got != "durable+buffered" {
		t.Fatalf("flushed image holds %q, want full content", got)
	}
}

// TestEntryVolatileUntilDirSync: a synced file whose directory entry
// was never committed is absent from the pessimal image — the exact
// failure mode of renaming without fsyncing the parent.
func TestEntryVolatileUntilDirSync(t *testing.T) {
	fs := New(Options{})
	f := write(t, fs, "/a", "content")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	disk := fs.Materialize(Variant{Name: "pessimal"})
	if _, ok := readOn(t, disk, "/a"); ok {
		t.Fatal("entry survived a crash without a parent dir sync")
	}
	if err := fs.SyncDir("/"); err != nil {
		t.Fatal(err)
	}
	disk = fs.Materialize(Variant{Name: "pessimal"})
	if got, ok := readOn(t, disk, "/a"); !ok || got != "content" {
		t.Fatalf("entry lost despite dir sync (got %q, %v)", got, ok)
	}
}

// TestRenameVolatileUntilDirSync: after rename but before SyncDir, a
// crash can revert to the pre-rename binding; after SyncDir it
// cannot.
func TestRenameVolatileUntilDirSync(t *testing.T) {
	fs := New(Options{})
	f := write(t, fs, "/tmp1", "payload")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir("/"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/tmp1", "/final"); err != nil {
		t.Fatal(err)
	}
	disk := fs.Materialize(Variant{Name: "pessimal"})
	if _, ok := readOn(t, disk, "/final"); ok {
		t.Fatal("rename survived a crash without a parent dir sync")
	}
	if got, ok := readOn(t, disk, "/tmp1"); !ok || got != "payload" {
		t.Fatalf("pre-rename binding lost too (got %q, %v)", got, ok)
	}
	if err := fs.SyncDir("/"); err != nil {
		t.Fatal(err)
	}
	disk = fs.Materialize(Variant{Name: "pessimal"})
	if got, ok := readOn(t, disk, "/final"); !ok || got != "payload" {
		t.Fatalf("rename lost despite dir sync (got %q, %v)", got, ok)
	}
	if _, ok := readOn(t, disk, "/tmp1"); ok {
		t.Fatal("old binding resurrected despite dir sync")
	}
}

// TestTornAndGarbledVariants: an unsynced append tail enumerates torn
// prefixes at sector granularity and a garbled final sector.
func TestTornAndGarbledVariants(t *testing.T) {
	fs := New(Options{Sector: 4})
	f := write(t, fs, "/log", "base")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir("/"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("0123456789")); err != nil { // 10-byte tail = 3 sectors
		t.Fatal(err)
	}
	vs := fs.Variants(10)
	var names []string
	for _, v := range vs {
		names = append(names, v.Name)
	}
	want := []string{"pessimal", "flushed", "torn-1", "torn-2", "torn-3", "garbled"}
	if len(names) != len(want) {
		t.Fatalf("variants %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("variants %v, want %v", names, want)
		}
	}
	byName := map[string]Variant{}
	for _, v := range vs {
		byName[v.Name] = v
	}
	if got, _ := readOn(t, fs.Materialize(byName["torn-1"]), "/log"); got != "base0123" {
		t.Fatalf("torn-1 image %q, want %q", got, "base0123")
	}
	if got, _ := readOn(t, fs.Materialize(byName["torn-3"]), "/log"); got != "base0123456789" {
		t.Fatalf("torn-3 image %q, want full tail", got)
	}
	g, _ := readOn(t, fs.Materialize(byName["garbled"]), "/log")
	if len(g) != len("base0123456789") {
		t.Fatalf("garbled image length %d, want %d", len(g), len("base0123456789"))
	}
	if g == "base0123456789" {
		t.Fatal("garbled image is not garbled")
	}
	if g[:len(g)-4] != "base012345" {
		t.Fatalf("garbled image %q damaged more than its final sector", g)
	}
}

// TestCrashAtIsPrefixExact: CrashAt=n leaves exactly n-1 ops applied
// and the filesystem returns errors (not panics) afterwards.
func TestCrashAtIsPrefixExact(t *testing.T) {
	fs := New(Options{CrashAt: 3})
	crashed := Catch(func() {
		f := write(t, fs, "/a", "one") // ops 1 (create) and 2 (write)
		_ = f.Sync()                   // op 3: crashes
		t.Fatal("unreachable: crash did not fire")
	})
	if !crashed {
		t.Fatal("Catch reported no crash")
	}
	if got := fs.OpCount(); got != 2 {
		t.Fatalf("op count after crash %d, want 2", got)
	}
	if !fs.crashed {
		t.Fatal("crashed unset after crash")
	}
	if _, err := fs.ReadFile("/a"); err == nil {
		t.Fatal("post-crash operation succeeded")
	}
	// The flushed image still sees the two applied ops' effects.
	if got, ok := readOn(t, fs.Materialize(Variant{Name: "flushed", keepUnsynced: true}), "/a"); !ok || got != "one" {
		t.Fatalf("flushed image after crash %q, %v", got, ok)
	}
}

// TestWriteAtomicSurvivesPessimalCrash: the full production
// WriteAtomic sequence (temp + sync + rename + parent SyncDir) makes
// the destination durable against the pessimal image, and with
// DropDirSyncs — simulating the pre-fix code path — it does not.
func TestWriteAtomicSurvivesPessimalCrash(t *testing.T) {
	fs := New(Options{})
	if err := fs.WriteFileAtomic("/dest", []byte("payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	disk := fs.Materialize(Variant{Name: "pessimal"})
	if got, ok := readOn(t, disk, "/dest"); !ok || got != "payload" {
		t.Fatalf("atomic write lost on pessimal image (got %q, %v)", got, ok)
	}

	buggy := New(Options{DropDirSyncs: true})
	if err := buggy.WriteFileAtomic("/dest", []byte("payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	disk = buggy.Materialize(Variant{Name: "pessimal"})
	if _, ok := readOn(t, disk, "/dest"); ok {
		t.Fatal("atomic write survived without effective dir syncs; the harness could not catch the parent-fsync regression")
	}
}

// TestTruncateTailResurrection: content truncated by an O_TRUNC open
// but not synced can resurrect on the pessimal image, whatever was
// written since.
func TestTruncateTailResurrection(t *testing.T) {
	fs := New(Options{})
	f := write(t, fs, "/j", "good+garbage")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir("/"); err != nil {
		t.Fatal(err)
	}
	f, err := fs.OpenFile("/j", os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("good+")); err != nil {
		t.Fatal(err)
	}
	disk := fs.Materialize(Variant{Name: "pessimal"})
	if got, _ := readOn(t, disk, "/j"); got != "good+garbage" {
		t.Fatalf("unsynced truncate already durable (%q); model should keep the old image", got)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	disk = fs.Materialize(Variant{Name: "pessimal"})
	if got, _ := readOn(t, disk, "/j"); got != "good+" {
		t.Fatalf("synced truncate not durable (%q)", got)
	}
}

// TestSnapshotAndMaterializeIndependence: materializing does not
// disturb the crashed filesystem.
func TestSnapshotAndMaterializeIndependence(t *testing.T) {
	fs := New(Options{})
	f := write(t, fs, "/a", "x")
	_ = f.Sync()
	_ = fs.SyncDir("/")
	d1 := fs.Materialize(Variant{Name: "pessimal"})
	d2 := fs.Materialize(Variant{Name: "pessimal"})
	s1, s2 := d1.Snapshot(), d2.Snapshot()
	if len(s1) != len(s2) || !bytes.Equal(s1["/a"], s2["/a"]) {
		t.Fatalf("repeated materialization differs: %v vs %v", s1, s2)
	}
	// Mutating one image leaves the other and the original untouched.
	g, err := d1.OpenFile("/a", os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write([]byte("mut")); err != nil {
		t.Fatal(err)
	}
	if got, _ := readOn(t, d2, "/a"); got != "x" {
		t.Fatalf("sibling image mutated: %q", got)
	}
	if got, _ := readOn(t, fs, "/a"); got != "x" {
		t.Fatalf("original mutated: %q", got)
	}
}

// TestOverwriteInPlace: an in-place overwrite is one traced write op,
// changes only its range, is lost on a pessimal crash until the file
// is synced, and yields no torn-append variants.
func TestOverwriteInPlace(t *testing.T) {
	fs := New(Options{Sector: 4})
	f := write(t, fs, "/log", "line-one\nline-two\n")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir("/"); err != nil {
		t.Fatal(err)
	}
	before := fs.OpCount()
	if err := fs.Overwrite("/log", 5, []byte("ONE")); err != nil {
		t.Fatal(err)
	}
	if ops := fs.ops; len(ops) != before+1 || ops[before].Kind != OpWrite {
		t.Fatalf("overwrite traced as %v, want one write op", ops[before:])
	}
	if got, _ := readOn(t, fs, "/log"); got != "line-ONE\nline-two\n" {
		t.Fatalf("buffered content %q", got)
	}
	if vs := fs.Variants(3); len(vs) != 2 {
		t.Fatalf("an in-place overwrite produced torn variants: %v", vs)
	}
	if got, _ := readOn(t, fs.Materialize(Variant{Name: "pessimal"}), "/log"); got != "line-one\nline-two\n" {
		t.Fatalf("unsynced overwrite survived a pessimal crash: %q", got)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, _ := readOn(t, fs.Materialize(Variant{Name: "pessimal"}), "/log"); got != "line-ONE\nline-two\n" {
		t.Fatalf("synced overwrite lost: %q", got)
	}
	if err := fs.Overwrite("/log", 16, []byte("xyz")); err == nil {
		t.Fatal("overwrite past the end of the file accepted")
	}
	if err := fs.Overwrite("/missing", 0, []byte("x")); err == nil {
		t.Fatal("overwrite of a missing file accepted")
	}
}
