package runner

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rmscale/internal/fsutil"
)

type fakePoint struct {
	K        int
	G        float64
	Enablers []float64
}

func TestJournalRoundtrip(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournalFS(dir, "fp1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 0 {
		t.Fatalf("fresh journal holds %d records", j.Len())
	}
	want := fakePoint{K: 2, G: 10.5, Enablers: []float64{40, 8, 1}}
	if err := j.Record("case1/CENTRAL/k=2", want); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournalFS(dir, "fp1", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	var got fakePoint
	if !lookup(t, j2, "case1/CENTRAL/k=2", &got) {
		t.Fatal("reopened journal lost the record")
	}
	if got.K != want.K || got.G != want.G || len(got.Enablers) != 3 {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	if lookup(t, j2, "missing", &got) {
		t.Fatal("lookup of missing id succeeded")
	}
}

// lookup decodes the journaled payload for id into out through Each,
// reporting whether id was found.
func lookup(t *testing.T, j *Journal, id string, out any) bool {
	t.Helper()
	found := false
	if err := j.Each(func(rid string, data json.RawMessage) error {
		if rid != id {
			return nil
		}
		found = true
		return json.Unmarshal(data, out)
	}); err != nil {
		t.Fatalf("decoding %s: %v", id, err)
	}
	return found
}

func TestJournalFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournalFS(dir, "rmscaled/v1", nil)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := OpenJournalFS(dir, "rmscaled/v2", nil); err == nil {
		t.Fatal("journal resumed under a different fingerprint")
	} else if !strings.Contains(err.Error(), "different run") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// TestJournalTruncatedTail simulates a writer killed mid-append: the
// partial final line must be dropped while every committed record
// survives, and the journal must accept new records afterwards.
func TestJournalTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournalFS(dir, "fp", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := j.Record(pointName(i), fakePoint{K: i}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	path := filepath.Join(dir, journalName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop the file mid-way through the last record's line.
	cut := len(b) - 10
	if err := os.WriteFile(path, b[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournalFS(dir, "fp", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 2 {
		t.Fatalf("journal holds %d records after truncation, want 2", j2.Len())
	}
	var p fakePoint
	if lookup(t, j2, pointName(3), &p) {
		t.Fatal("truncated record resurrected")
	}
	if err := j2.Record(pointName(3), fakePoint{K: 3}); err != nil {
		t.Fatal(err)
	}
	if ok := lookup(t, j2, pointName(3), &p); !ok || p.K != 3 {
		t.Fatalf("re-recorded point missing: %+v, %v", p, ok)
	}
}

func TestJournalRecordIdempotent(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournalFS(dir, "fp", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Record("id", fakePoint{K: 1, G: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Record("id", fakePoint{K: 1, G: 999}); err != nil {
		t.Fatal(err)
	}
	var p fakePoint
	if ok := lookup(t, j, "id", &p); !ok || p.G != 1 {
		t.Fatalf("re-record overwrote the committed value: %+v", p)
	}
	if j.Len() != 1 {
		t.Fatalf("duplicate record changed length: %d", j.Len())
	}
}

// tornAppendFS writes half of each synced append and fails it while
// armed, as a disk that fills up mid-write does.
type tornAppendFS struct {
	fsutil.RealFS
	armed bool
}

var errTorn = errors.New("torn append")

func (f *tornAppendFS) AppendSync(file fsutil.File, b []byte) error {
	if f.armed {
		f.armed = false
		_, _ = file.Write(b[:len(b)/2])
		return errTorn
	}
	return f.RealFS.AppendSync(file, b)
}

// TestJournalStopsAfterFailedAppend pins that no record is appended
// behind a failed, possibly torn, append: tail recovery would drop it
// with the torn line, after its Record had reported it durable.
func TestJournalStopsAfterFailedAppend(t *testing.T) {
	dir := t.TempDir()
	fs := &tornAppendFS{}
	j, err := OpenJournalFS(dir, "fp", fs)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record(pointName(1), fakePoint{K: 1}); err != nil {
		t.Fatal(err)
	}
	fs.armed = true
	if err := j.Record(pointName(2), fakePoint{K: 2}); !errors.Is(err, errTorn) {
		t.Fatalf("torn append: %v", err)
	}
	if err := j.Record(pointName(3), fakePoint{K: 3}); !errors.Is(err, errTorn) {
		t.Fatalf("record after a failed append: %v, want the append's failure", err)
	}
	j.Close()
	j2, err := OpenJournalFS(dir, "fp", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 1 || j2.Dropped() != 1 {
		t.Fatalf("len=%d dropped=%d, want the first record and the torn line dropped", j2.Len(), j2.Dropped())
	}
}

// TestJournalRecoversHeaderlessGarbage pins the crash-recovery
// contract for a file whose header never became valid — a power cut
// between journal creation and the header fsync, or whole-file
// damage. No record of such a file was ever acknowledged, so open
// must succeed with a fresh journal, report the damaged lines as
// dropped, and leave the file usable for new records.
func TestJournalRecoversHeaderlessGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, journalName)
	if err := os.WriteFile(path, []byte("not json at all\nmore garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournalFS(dir, "fp", nil)
	if err != nil {
		t.Fatalf("headerless journal not recovered: %v", err)
	}
	defer j.Close()
	if j.Len() != 0 {
		t.Fatalf("garbage journal loaded %d records", j.Len())
	}
	if j.Dropped() != 2 {
		t.Fatalf("Dropped() = %d, want 2 damaged lines", j.Dropped())
	}
	if err := j.Record("id", fakePoint{G: 1}); err != nil {
		t.Fatal(err)
	}
	// The rewritten file must reopen cleanly with the record intact.
	j.Close()
	j2, err := OpenJournalFS(dir, "fp", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 1 || j2.Dropped() != 0 {
		t.Fatalf("reopen after recovery: len=%d dropped=%d", j2.Len(), j2.Dropped())
	}
}

func pointName(i int) string {
	return "case1/LOWEST/k=" + string(rune('0'+i))
}

func TestJournalEach(t *testing.T) {
	j, err := OpenJournalFS(t.TempDir(), "fp-each", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	// Record out of lexicographic order; Each must iterate sorted.
	for _, id := range []string{"exp/bb", "exp/aa", "exp/cc"} {
		if err := j.Record(id, fakePoint{K: len(id)}); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	if err := j.Each(func(id string, data json.RawMessage) error {
		if len(data) == 0 {
			t.Errorf("entry %s has empty payload", id)
		}
		got = append(got, id)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"exp/aa", "exp/bb", "exp/cc"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("Each order %v, want %v", got, want)
	}
	// An fn error aborts the walk and propagates.
	calls := 0
	err = j.Each(func(id string, data json.RawMessage) error {
		calls++
		return os.ErrClosed
	})
	if err != os.ErrClosed || calls != 1 {
		t.Fatalf("Each error propagation: err=%v calls=%d", err, calls)
	}
}

// TestJournalGarbledTailRecovery pins the valid-prefix recovery
// contract: a journal whose tail is garbage (not merely chopped) is
// recovered to the records before the garbage, the file is truncated
// back to that prefix so later appends stay parseable, and Dropped
// reports the discarded lines.
func TestJournalGarbledTailRecovery(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournalFS(dir, "fp", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := j.Record(pointName(i), fakePoint{K: i}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	path := filepath.Join(dir, journalName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the last record's line with garbage and append one more
	// garbage line: two dropped lines, records 1-2 intact.
	lines := strings.SplitAfter(strings.TrimRight(string(b), "\n"), "\n")
	keep := strings.Join(lines[:len(lines)-1], "")
	garbled := keep + "{\"id\":\"x\", CORRUPT@@@\nnot json either\n"
	if err := os.WriteFile(path, []byte(garbled), 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournalFS(dir, "fp", nil)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Len() != 2 {
		t.Fatalf("journal holds %d records after garbled tail, want 2", j2.Len())
	}
	if j2.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", j2.Dropped())
	}
	// Appending after recovery must land on a clean boundary: record 3
	// again, close, reopen, and everything must be there.
	if err := j2.Record(pointName(3), fakePoint{K: 3}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, err := OpenJournalFS(dir, "fp", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if j3.Len() != 3 || j3.Dropped() != 0 {
		t.Fatalf("after re-append: len=%d dropped=%d, want 3 and 0", j3.Len(), j3.Dropped())
	}
}

// TestJournalUnterminatedTail pins that a final record whose newline
// never landed is treated as uncommitted even when its JSON parses:
// keeping it would let the next append concatenate onto it.
func TestJournalUnterminatedTail(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournalFS(dir, "fp", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if err := j.Record(pointName(i), fakePoint{K: i}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	path := filepath.Join(dir, journalName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-1], 0o644); err != nil { // drop only the final '\n'
		t.Fatal(err)
	}
	j2, err := OpenJournalFS(dir, "fp", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 1 || j2.Dropped() != 1 {
		t.Fatalf("len=%d dropped=%d, want 1 and 1 (unterminated record is uncommitted)", j2.Len(), j2.Dropped())
	}
	// Re-recording it must produce a journal that reopens clean.
	if err := j2.Record(pointName(2), fakePoint{K: 2}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, err := OpenJournalFS(dir, "fp", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if j3.Len() != 2 || j3.Dropped() != 0 {
		t.Fatalf("after re-append: len=%d dropped=%d, want 2 and 0", j3.Len(), j3.Dropped())
	}
}
