package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestRestartReexecutesCorruptResult pins the crash-with-corruption
// story end to end: a daemon restarting over a store entry whose bytes
// were damaged on disk quarantines it, re-executes the journaled spec,
// and serves a byte-identical result — the content address guarantees
// the recomputation.
func TestRestartReexecutesCorruptResult(t *testing.T) {
	dir := t.TempDir()
	d1, err := New(Config{Dir: dir, Shards: 1, Exec: fakeExec})
	if err != nil {
		t.Fatal(err)
	}
	spec := ExperimentSpec{Kind: KindSim, Model: "LOWEST", Seed: 7}
	st, err := d1.Submit(spec, "c")
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, d1, st.ID)
	want, ok := d1.Result(st.ID)
	if !ok {
		t.Fatal("result missing before the crash")
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	// Damage the logged payload (bit rot) under its old checksum: the
	// restart's replay must detect the mismatch.
	corruptOnDisk(t, filepath.Join(dir, "results"), st.ID)

	d2, err := New(Config{Dir: dir, Shards: 1, Exec: fakeExec})
	if err != nil {
		t.Fatalf("restart over corrupt store refused: %v", err)
	}
	defer d2.Close()
	fin := waitTerminal(t, d2, st.ID)
	if fin.State != StateDone {
		t.Fatalf("re-execution ended %s (%s), want done", fin.State, fin.Error)
	}
	got, ok := d2.Result(st.ID)
	if !ok {
		t.Fatal("re-executed result missing")
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("re-executed result differs:\n got %q\nwant %q", got, want)
	}
	s := d2.Stats()
	if s.CorruptResults < 1 || s.Resumed != 1 || s.Executions != 1 {
		t.Fatalf("stats = corrupt %d resumed %d executions %d, want >=1/1/1", s.CorruptResults, s.Resumed, s.Executions)
	}
}

// TestRestartTruncatedJournalTail pins crash-tolerant resume: a
// journal whose tail was torn mid-record (power loss during append)
// restarts cleanly — the valid prefix resumes, the partial record is
// dropped and counted, and the lost submission simply re-runs when the
// client resubmits it, byte-identical.
func TestRestartTruncatedJournalTail(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	exec := func(ctx context.Context, spec ExperimentSpec, d string) ([]byte, error) {
		if spec.Seed == 2 {
			<-gate // hold B so it stays queued across the drain
		}
		return fakeExec(ctx, spec, d)
	}
	d1, err := New(Config{Dir: dir, Shards: 1, Exec: exec})
	if err != nil {
		t.Fatal(err)
	}
	specA := ExperimentSpec{Kind: KindSim, Model: "LOWEST", Seed: 1}
	specB := ExperimentSpec{Kind: KindSim, Model: "LOWEST", Seed: 2}
	stA, err := d1.Submit(specA, "c")
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, d1, stA.ID)
	wantA, _ := d1.Result(stA.ID)
	stB, err := d1.Submit(specB, "c")
	if err != nil {
		t.Fatal(err)
	}
	close(gate)
	waitTerminal(t, d1, stB.ID)
	wantB, _ := d1.Result(stB.ID)
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the journal mid-record: chop half of B's (final) line, as a
	// crash between write and sync would.
	jpath := filepath.Join(dir, "journal", "journal.log")
	b, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(b, []byte("\n")), []byte("\n"))
	last := lines[len(lines)-1]
	keep := len(b) - len(last)/2 - 1 // half the last line, no newline
	if err := os.WriteFile(jpath, b[:keep], 0o644); err != nil {
		t.Fatal(err)
	}
	// Remove B's stored result too: the torn record must not resurrect
	// it, and a resubmission must recompute identical bytes.
	editLogRecord(t, filepath.Join(dir, "results"), stB.ID, func([]byte) []byte { return nil })

	d2, err := New(Config{Dir: dir, Shards: 1, Exec: exec})
	if err != nil {
		t.Fatalf("restart over torn journal refused: %v", err)
	}
	defer d2.Close()
	if s := d2.Stats(); s.JournalDropped != 1 {
		t.Fatalf("journal_dropped = %d, want 1", s.JournalDropped)
	}
	// A survives the tear: still served from the verified store.
	gotA, ok := d2.Result(stA.ID)
	if !ok || !bytes.Equal(gotA, wantA) {
		t.Fatalf("A lost with the torn tail: ok=%v", ok)
	}
	// B's record was the torn line: unknown now, and resubmission runs
	// it fresh to the same bytes.
	if _, ok := d2.Status(stB.ID); ok {
		t.Fatal("torn record resurrected B")
	}
	stB2, err := d2.Submit(specB, "c")
	if err != nil {
		t.Fatal(err)
	}
	if stB2.ID != stB.ID {
		t.Fatalf("resubmitted B got a different ID: %s vs %s", stB2.ID, stB.ID)
	}
	waitTerminal(t, d2, stB.ID)
	gotB, ok := d2.Result(stB.ID)
	if !ok || !bytes.Equal(gotB, wantB) {
		t.Fatalf("recomputed B differs: ok=%v\n got %q\nwant %q", ok, gotB, wantB)
	}
	// The journal accepts appends after the repair: a third spec
	// journals and resumes normally (the rewrite left a clean file).
	stC, err := d2.Submit(ExperimentSpec{Kind: KindSim, Model: "LOWEST", Seed: 3}, "c")
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, d2, stC.ID)
}

// TestRestartGarbledJournalGarbage: arbitrary garbage appended to the
// journal (a partially flushed page, editor damage) is dropped at
// restart without losing the valid prefix.
func TestRestartGarbledJournalGarbage(t *testing.T) {
	dir := t.TempDir()
	d1, err := New(Config{Dir: dir, Shards: 1, Exec: fakeExec})
	if err != nil {
		t.Fatal(err)
	}
	st, err := d1.Submit(ExperimentSpec{Kind: KindSim, Model: "LOWEST", Seed: 1}, "c")
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, d1, st.ID)
	want, _ := d1.Result(st.ID)
	d1.Close()

	jpath := filepath.Join(dir, "journal", "journal.log")
	f, err := os.OpenFile(jpath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("{\"broken\": \nnot json at all\x00\xff{{{")
	f.Close()

	d2, err := New(Config{Dir: dir, Shards: 1, Exec: fakeExec})
	if err != nil {
		t.Fatalf("restart over garbled journal refused: %v", err)
	}
	defer d2.Close()
	if s := d2.Stats(); s.JournalDropped == 0 {
		t.Fatal("garbled tail not counted")
	}
	got, ok := d2.Result(st.ID)
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("valid prefix lost: ok=%v", ok)
	}
}

// TestUpgradeFromGCBoundedDir pins the upgrade over a directory a
// GC-bounded daemon left: its result log holds a tombstone for every
// result it evicted. The first start re-executes exactly the evicted
// results, and a second start finds every result stored and re-runs
// nothing.
func TestUpgradeFromGCBoundedDir(t *testing.T) {
	dir := t.TempDir()
	var journal, results []byte
	var ids []string
	want := map[string][]byte{}
	for k := 0; k < 6; k++ {
		spec := ExperimentSpec{Kind: KindSim, Model: "LOWEST", Seed: int64(k + 1)}
		id := mustID(t, spec)
		rec, err := json.Marshal(submitRecord{Spec: spec, Client: "c"})
		if err != nil {
			t.Fatal(err)
		}
		journal = append(journal, encodeRecord(id, false, rec)...)
		want[id], _ = fakeExec(context.Background(), spec, "")
		results = append(results, encodeRecord(id, false, want[id])...)
		ids = append(ids, id)
		if k >= 2 { // a bound of two evicts the oldest result on each store
			results = append(results, encodeRecord(ids[k-2], true, nil)...)
		}
	}
	for sub, b := range map[string][]byte{"journal": journal, "results": results} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, sub, sub+".log"), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	for _, wantRuns := range []int64{4, 0} {
		d, err := New(Config{Dir: dir, Shards: 1, Exec: fakeExec})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if fin := waitTerminal(t, d, id); fin.State != StateDone {
				t.Fatalf("%s ended %s (%s), want done", id, fin.State, fin.Error)
			}
			if got, ok := d.Result(id); !ok || !bytes.Equal(got, want[id]) {
				t.Fatalf("%s = %q, %v; want %q", id, got, ok, want[id])
			}
		}
		s := d.Stats()
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		if s.Resumed != wantRuns || s.Executions != wantRuns || s.CorruptResults != 0 {
			t.Fatalf("resumed %d, executions %d, corrupt %d; want %d, %d, 0", s.Resumed, s.Executions, s.CorruptResults, wantRuns, wantRuns)
		}
	}
}

// TestUpgradeLeavesOldJournal pins the upgrade over a directory whose
// daemon journaled submissions in DIR/journal.jsonl: every stored
// result still serves, nothing resumes from that file, and it is left
// byte-identical.
func TestUpgradeLeavesOldJournal(t *testing.T) {
	dir := t.TempDir()
	specA := ExperimentSpec{Kind: KindSim, Model: "LOWEST", Seed: 1} // finished under the old daemon
	specB := ExperimentSpec{Kind: KindSim, Model: "LOWEST", Seed: 2} // still queued under it
	old := []byte(`{"header":{"version":1,"fingerprint":"rmscaled/v1"}}` + "\n")
	for _, spec := range []ExperimentSpec{specA, specB} {
		rec, err := json.Marshal(submitRecord{Spec: spec, Client: "c"})
		if err != nil {
			t.Fatal(err)
		}
		old = fmt.Appendf(old, `{"id":"exp/%s","data":%s}`+"\n", mustID(t, spec), rec)
	}
	jpath := filepath.Join(dir, "journal.jsonl")
	if err := os.WriteFile(jpath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	want, _ := fakeExec(context.Background(), specA, "")
	results := mustNewStore(t, StoreConfig{Dir: filepath.Join(dir, "results")})
	results.Put(mustID(t, specA), want)
	results.Close()

	d, err := New(Config{Dir: dir, Shards: 1, Exec: fakeExec})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := d.Result(mustID(t, specA)); !ok || !bytes.Equal(got, want) {
		t.Fatalf("stored result after the upgrade = %q, %v; want %q", got, ok, want)
	}
	if _, ok := d.Status(mustID(t, specB)); ok || d.Stats().Resumed != 0 {
		t.Fatalf("the old journal's backlog resumed (resumed=%d)", d.Stats().Resumed)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(jpath); err != nil || !bytes.Equal(b, old) {
		t.Fatalf("journal.jsonl changed by the upgrade: %v", err)
	}
}
