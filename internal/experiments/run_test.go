package experiments

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"rmscale/internal/scale"
)

// tableBytes renders the case's headline figure the way the CLI's
// table format does — the byte-identity oracle for the determinism and
// resume tests.
func tableBytes(t *testing.T, r *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Figure().WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.ThroughputFigure().WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDeterminismSerialParallelWarmCache is the regression test the
// runner's contract hangs on: a Smoke case run serially, run with four
// workers, and re-run against a warm content-addressed cache must
// produce byte-identical tables for the same seed.
func TestDeterminismSerialParallelWarmCache(t *testing.T) {
	if testing.Short() {
		t.Skip("case run is slow")
	}
	const seed = 7

	serial, err := RunCaseSpec(4, RunSpec{Fidelity: Smoke, Seed: seed, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := tableBytes(t, serial)

	parallel, err := RunCaseSpec(4, RunSpec{Fidelity: Smoke, Seed: seed, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := tableBytes(t, parallel); !bytes.Equal(got, want) {
		t.Fatalf("parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
	}

	// Warm the disk cache, then delete the journal so the third run
	// re-tunes from scratch but against a fully warm cache — this
	// isolates the cache path from journal adoption.
	dir := t.TempDir()
	if _, err := RunCaseSpec(4, RunSpec{Fidelity: Smoke, Seed: seed, Workers: 4, Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "journal.jsonl")); err != nil {
		t.Fatal(err)
	}
	warm, err := RunCaseSpec(4, RunSpec{Fidelity: Smoke, Seed: seed, Workers: 4, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := tableBytes(t, warm); !bytes.Equal(got, want) {
		t.Fatalf("cache-warm output differs from serial:\n--- serial ---\n%s\n--- warm ---\n%s", want, got)
	}
}

// TestCheckpointResumeRoundtrip kills a run partway through via
// context cancellation, then resumes it from the journal and checks
// the final tables are identical to an uninterrupted run's.
func TestCheckpointResumeRoundtrip(t *testing.T) {
	if testing.Short() {
		t.Skip("case run is slow")
	}
	const seed = 3

	uninterrupted, err := RunCaseSpec(4, RunSpec{Fidelity: Smoke, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	want := tableBytes(t, uninterrupted)

	// First attempt: cancel after a handful of points have been
	// journaled, mid-flight through the k-chains.
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	var points atomic.Int64
	_, err = RunCaseSpec(4, RunSpec{
		Fidelity: Smoke,
		Seed:     seed,
		Workers:  2,
		Dir:      dir,
		Context:  ctx,
		Progress: func(string, scale.Point) {
			if points.Add(1) == 4 {
				cancel()
			}
		},
	})
	if err == nil {
		t.Fatal("cancelled run reported success")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run failed with %v, want context.Canceled in the chain", err)
	}
	if points.Load() < 4 {
		t.Fatalf("cancelled too early: %d points", points.Load())
	}

	// The journal must hold the committed prefix.
	if _, err := os.Stat(filepath.Join(dir, "journal.jsonl")); err != nil {
		t.Fatal(err)
	}

	// Resume with the same parameters.
	resumed, err := RunCaseSpec(4, RunSpec{Fidelity: Smoke, Seed: seed, Workers: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := tableBytes(t, resumed); !bytes.Equal(got, want) {
		t.Fatalf("resumed output differs from uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}

	// A second resume of the now-complete journal adopts everything.
	again, err := RunCaseSpec(4, RunSpec{Fidelity: Smoke, Seed: seed, Workers: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := tableBytes(t, again); !bytes.Equal(got, want) {
		t.Fatal("fully-journaled rerun differs")
	}
}

// TestResumeRefusesDifferentParameters guards against replaying a
// checkpoint into the wrong run shape.
func TestResumeRefusesDifferentParameters(t *testing.T) {
	if testing.Short() {
		t.Skip("case run is slow")
	}
	dir := t.TempDir()
	if _, err := RunCaseSpec(4, RunSpec{Fidelity: Smoke, Seed: 1, Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunCaseSpec(4, RunSpec{Fidelity: Smoke, Seed: 2, Dir: dir}); err == nil {
		t.Fatal("journal resumed under a different seed")
	}
}

// TestRunstateWritten checks the machine-readable progress file
// appears and accounts for the run.
func TestRunstateWritten(t *testing.T) {
	if testing.Short() {
		t.Skip("case run is slow")
	}
	dir := t.TempDir()
	if _, err := RunCaseSpec(4, RunSpec{Fidelity: Smoke, Seed: 1, Dir: dir}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "runstate.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"jobs_done", "cache_hit_rate", "points_done", "\"done\": true"} {
		if !bytes.Contains(b, []byte(want)) {
			t.Fatalf("runstate.json missing %q:\n%s", want, b)
		}
	}
}

// TestRunAllSharedPool runs two cases through one pool and checks both
// results land intact and in order.
func TestRunAllSharedPool(t *testing.T) {
	if testing.Short() {
		t.Skip("case run is slow")
	}
	rs, err := RunCasesSpec([]int{4, 3}, RunSpec{Fidelity: Smoke, Seed: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].Case != 4 || rs[1].Case != 3 {
		t.Fatalf("results out of order: %v", []int{rs[0].Case, rs[1].Case})
	}
	for _, r := range rs {
		if len(r.Measurements) != len(r.Order) {
			t.Fatalf("case %d measured %d of %d models", r.Case, len(r.Measurements), len(r.Order))
		}
	}
}

func TestRunCaseSpecUnknownCase(t *testing.T) {
	if _, err := RunCaseSpec(9, RunSpec{Fidelity: Smoke, Seed: 1}); err == nil {
		t.Fatal("unknown case accepted")
	}
}

func TestRunSpecValidation(t *testing.T) {
	if err := (RunSpec{Fidelity: Smoke}).Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	// Every rejection names the offending value, so a bad spec can be
	// fixed from the error alone.
	err := (RunSpec{Fidelity: Fidelity(99)}).Validate()
	if err == nil {
		t.Fatal("unknown fidelity accepted")
	}
	if !strings.Contains(err.Error(), "99") {
		t.Fatalf("fidelity error %q does not name the offending value", err)
	}
	err = (RunSpec{Fidelity: Smoke, Workers: -1}).Validate()
	if err == nil {
		t.Fatal("negative Workers accepted")
	}
	if !strings.Contains(err.Error(), "-1") {
		t.Fatalf("workers error %q does not name the offending value", err)
	}
	err = (RunSpec{Fidelity: Smoke, Seed: -3}).Validate()
	if err == nil {
		t.Fatal("negative Seed accepted")
	}
	if !strings.Contains(err.Error(), "-3") {
		t.Fatalf("seed error %q does not name the offending value", err)
	}
	// The Run*Spec entry points must fail before touching any journal
	// or cache state.
	if _, err := RunCaseSpec(1, RunSpec{Fidelity: Fidelity(99), Seed: 1}); err == nil {
		t.Fatal("RunCaseSpec ran with an unknown fidelity")
	}
}

// TestRunSpecString pins the diagnostic rendering: identity fields
// only, matching what fingerprint() hashes.
func TestRunSpecString(t *testing.T) {
	s := RunSpec{Fidelity: Quick, Seed: 7, Workers: 4, Dir: "/tmp/x"}
	if got, want := s.String(), "runspec{fidelity=quick seed=7}"; got != want {
		t.Fatalf("String() = %q, want %q (identity fields only)", got, want)
	}
}

func TestRunCasesSpecRejectsDuplicatesAndEmpty(t *testing.T) {
	if _, err := RunCasesSpec(nil, RunSpec{Fidelity: Smoke, Seed: 1}); err == nil {
		t.Fatal("empty case list accepted")
	}
	// Duplicate IDs would share journal point IDs and silently overwrite
	// each other's results.
	if _, err := RunCasesSpec([]int{1, 2, 1}, RunSpec{Fidelity: Smoke, Seed: 1}); err == nil {
		t.Fatal("duplicate case IDs accepted")
	}
}
