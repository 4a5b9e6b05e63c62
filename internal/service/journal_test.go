package service_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"rmscale/internal/service"
)

// The journal of accepted experiments that rmscaled resumes from is a
// service.Store in its own directory, journal/, whose log is
// journal/journal.log. These tests hold it to the journal contract:
// records survive a reopen byte for byte under stable IDs, a
// re-recorded ID keeps its first record, Each walks in ID order, and a
// torn final line is dropped on reopen while every committed record
// survives and later appends land cleanly.

type fakePoint struct {
	K        int
	G        float64
	Enablers []float64
}

// journalDir returns a fresh journal directory, named as the daemon
// names its journal's.
func journalDir(t *testing.T) string { return filepath.Join(t.TempDir(), "journal") }

func openJournal(t *testing.T, dir string) *service.Store {
	t.Helper()
	j, err := service.NewStore(service.StoreConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

func record(t *testing.T, j *service.Store, id string, p fakePoint) {
	t.Helper()
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	j.Put(id, b)
	if why, degraded := j.Degraded(); degraded {
		t.Fatalf("recording %s degraded the journal: %s", id, why)
	}
}

// lookup decodes the journaled payload for id into out, reporting
// whether id was found.
func lookup(t *testing.T, j *service.Store, id string, out *fakePoint) bool {
	t.Helper()
	b, ok := j.Get(id)
	if !ok {
		return false
	}
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatalf("decoding %s: %v", id, err)
	}
	return true
}

func pointName(i int) string { return "case1/LOWEST/k=" + strconv.Itoa(i) }

// chopLog rewrites the journal's log in dir to its first n bytes
// behind the store's back, as a writer killed mid-append leaves it.
func chopLog(t *testing.T, dir string, n func(size int) int) {
	t.Helper()
	path := filepath.Join(dir, "journal.log")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:n(len(b))], 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestJournalRoundtrip(t *testing.T) {
	dir := journalDir(t)
	j := openJournal(t, dir)
	if j.Len() != 0 {
		t.Fatalf("fresh journal holds %d records", j.Len())
	}
	want := fakePoint{K: 2, G: 10.5, Enablers: []float64{40, 8, 1}}
	record(t, j, "case1/CENTRAL/k=2", want)
	stored, _ := j.Get("case1/CENTRAL/k=2")
	j.Close()

	j2 := openJournal(t, dir)
	if b, ok := j2.Get("case1/CENTRAL/k=2"); !ok || !bytes.Equal(b, stored) {
		t.Fatalf("reopened journal holds %q, %v; want %q", b, ok, stored)
	}
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

// TestJournalTruncatedTail simulates a writer killed mid-append: the
// partial final line must be dropped while every committed record
// survives, and the journal must accept new records afterwards.
func TestJournalTruncatedTail(t *testing.T) {
	dir := journalDir(t)
	j := openJournal(t, dir)
	for i := 1; i <= 3; i++ {
		record(t, j, pointName(i), fakePoint{K: i})
	}
	j.Close()
	// Chop the file mid-way through the last record's line.
	chopLog(t, dir, func(size int) int { return size - 10 })

	j2 := openJournal(t, dir)
	if j2.Len() != 2 || j2.Audit().Torn != 1 {
		t.Fatalf("journal holds %d records, %d torn lines dropped after truncation; want 2 and 1", j2.Len(), j2.Audit().Torn)
	}
	var p fakePoint
	if lookup(t, j2, pointName(3), &p) {
		t.Fatal("truncated record resurrected")
	}
	record(t, j2, pointName(3), fakePoint{K: 3})
	if ok := lookup(t, j2, pointName(3), &p); !ok || p.K != 3 {
		t.Fatalf("re-recorded point missing: %+v, %v", p, ok)
	}
	j2.Close()
	j3 := openJournal(t, dir)
	if a := j3.Audit(); a != (service.StoreAudit{Verified: 3}) {
		t.Fatalf("reopen after the re-append: audit %+v, want 3 records and nothing repaired", a)
	}
}

func TestJournalRecordIdempotent(t *testing.T) {
	dir := journalDir(t)
	j := openJournal(t, dir)
	record(t, j, "id", fakePoint{K: 1, G: 1})
	record(t, j, "id", fakePoint{K: 1, G: 999})
	var p fakePoint
	if ok := lookup(t, j, "id", &p); !ok || p.G != 1 {
		t.Fatalf("re-record overwrote the committed value: %+v", p)
	}
	if j.Len() != 1 {
		t.Fatalf("duplicate record changed length: %d", j.Len())
	}
	j.Close()
	j2 := openJournal(t, dir)
	if ok := lookup(t, j2, "id", &p); !ok || p.G != 1 || j2.Audit() != (service.StoreAudit{Verified: 1}) {
		t.Fatalf("reopen: %+v, %v, audit %+v; want the first record logged once", p, ok, j2.Audit())
	}
}

// TestJournalEach: Each visits every record in ID order, whatever
// order they were recorded in, with the exact bytes recorded, and
// stops at the first error its callback returns.
func TestJournalEach(t *testing.T) {
	dir := journalDir(t)
	j := openJournal(t, dir)
	for _, id := range []string{"exp/bb", "exp/aa", "exp/cc"} {
		j.Put(id, []byte("payload of "+id))
	}
	j.Close()
	reopened := openJournal(t, dir)
	var got []string
	if err := reopened.Each(func(id string, b []byte) error {
		got = append(got, id+"="+string(b))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := "exp/aa=payload of exp/aa,exp/bb=payload of exp/bb,exp/cc=payload of exp/cc"; strings.Join(got, ",") != want {
		t.Fatalf("Each visited %v, want %s", got, want)
	}
	// An fn error aborts the walk and propagates.
	calls := 0
	err := reopened.Each(func(string, []byte) error {
		calls++
		return os.ErrClosed
	})
	if err != os.ErrClosed || calls != 1 {
		t.Fatalf("Each error propagation: err=%v calls=%d", err, calls)
	}
}

// TestJournalUnterminatedTail pins that a final record whose newline
// never landed is treated as uncommitted even when it parses and its
// checksum holds: keeping it would let the next append concatenate
// onto it.
func TestJournalUnterminatedTail(t *testing.T) {
	dir := journalDir(t)
	j := openJournal(t, dir)
	for i := 1; i <= 2; i++ {
		record(t, j, pointName(i), fakePoint{K: i})
	}
	j.Close()
	chopLog(t, dir, func(size int) int { return size - 1 }) // drop only the final '\n'

	j2 := openJournal(t, dir)
	if j2.Len() != 1 || j2.Audit().Torn != 1 {
		t.Fatalf("len=%d torn=%d, want 1 and 1 (unterminated record is uncommitted)", j2.Len(), j2.Audit().Torn)
	}
	// Re-recording it must produce a journal that reopens clean.
	record(t, j2, pointName(2), fakePoint{K: 2})
	j2.Close()
	j3 := openJournal(t, dir)
	if j3.Len() != 2 || j3.Audit() != (service.StoreAudit{Verified: 2}) {
		t.Fatalf("after re-append: len=%d audit %+v, want 2 records and nothing repaired", j3.Len(), j3.Audit())
	}
}
