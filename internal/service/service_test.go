package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
)

// fakeExec returns a deterministic payload derived from the spec.
func fakeExec(_ context.Context, spec ExperimentSpec, _ string) ([]byte, error) {
	return []byte(fmt.Sprintf("{\"ran\":%q}\n", spec.String())), nil
}

// waitTerminal blocks (condition-variable driven, no polling) until the
// experiment reaches a terminal state.
func waitTerminal(t *testing.T, d *Daemon, id string) Status {
	t.Helper()
	st, ok := d.Wait(id)
	if !ok {
		t.Fatalf("unknown experiment %s", id)
	}
	if !st.State.Terminal() {
		t.Fatalf("daemon closed with %s still %s", id, st.State)
	}
	return st
}

func TestDaemonSubmitValidates(t *testing.T) {
	d, err := New(Config{Exec: fakeExec})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Submit(ExperimentSpec{Kind: "bogus"}, "c"); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

// TestDaemonDedupInflight pins the core dedup contract: identical
// specs from different clients share one execution and one stored,
// byte-identical result.
func TestDaemonDedupInflight(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	exec := func(ctx context.Context, spec ExperimentSpec, dir string) ([]byte, error) {
		started <- struct{}{}
		<-release
		return fakeExec(ctx, spec, dir)
	}
	d, err := New(Config{Shards: 1, Exec: exec})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	spec := ExperimentSpec{Kind: KindSim, Model: "LOWEST", Seed: 1}
	st1, err := d.Submit(spec, "alice")
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	if st1.Dedup {
		t.Fatal("first submission flagged dedup")
	}
	<-started // the shard is now blocked inside the execution

	st2, err := d.Submit(spec, "bob")
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	if !st2.Dedup {
		t.Fatal("identical in-flight submission not flagged dedup")
	}
	if st2.ID != st1.ID {
		t.Fatalf("identical specs got different IDs: %s vs %s", st1.ID, st2.ID)
	}
	close(release)

	fin := waitTerminal(t, d, st1.ID)
	if fin.State != StateDone {
		t.Fatalf("state = %s (%s), want done", fin.State, fin.Error)
	}
	// A third, post-completion submission dedupes against the store.
	st3, err := d.Submit(spec, "carol")
	if err != nil {
		t.Fatalf("submit 3: %v", err)
	}
	if !st3.Dedup || st3.State != StateDone {
		t.Fatalf("post-completion submission: dedup=%v state=%s, want dedup done", st3.Dedup, st3.State)
	}

	b1, ok := d.Result(st1.ID)
	if !ok {
		t.Fatal("result missing")
	}
	b2, _ := d.Result(st1.ID)
	if string(b1) != string(b2) {
		t.Fatal("repeated fetches returned different bytes")
	}

	s := d.Stats()
	if s.Submitted != 3 || s.Executions != 1 || s.Completed != 1 {
		t.Fatalf("stats = %+v, want submitted=3 executions=1 completed=1", s)
	}
	if s.DedupInflight != 1 || s.DedupStore != 1 || s.DedupHits() != 2 {
		t.Fatalf("stats = %+v, want dedup_inflight=1 dedup_store=1", s)
	}
}

// TestDedupHitAllocs budgets the dedup fast path: submitting an
// already-stored spec, polling its status and fetching its result, the
// request mix that dominates a saturated service. It calls the Daemon
// directly, so the budget covers the daemon's bookkeeping, not
// net/http's.
func TestDedupHitAllocs(t *testing.T) {
	const budget = 5
	payload := []byte(`{"ok":true}`)
	d, err := New(Config{Shards: 1, Exec: func(context.Context, ExperimentSpec, string) ([]byte, error) {
		return payload, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	spec := ExperimentSpec{Kind: KindSim, Model: "LOWEST", Seed: 1}
	st, err := d.Submit(spec, "seed")
	if err != nil {
		t.Fatal(err)
	}
	if st = waitTerminal(t, d, st.ID); st.State != StateDone {
		t.Fatalf("seeded experiment ended %s: %s", st.State, st.Error)
	}
	allocs := testing.AllocsPerRun(200, func() {
		s, err := d.Submit(spec, "probe")
		if err != nil || !s.Dedup {
			t.Fatalf("dedup submit: %+v, %v", s, err)
		}
		if _, ok := d.Status(st.ID); !ok {
			t.Fatalf("status lost %s", st.ID)
		}
		if _, ok := d.Result(st.ID); !ok {
			t.Fatalf("result lost %s", st.ID)
		}
	})
	if raceEnabled {
		t.Skipf("the race detector adds allocations (%.0f measured); the budget of %d holds without it", allocs, budget)
	}
	if allocs > budget {
		t.Errorf("dedup hit (submit, status, result) allocates %.0f times, budget %d", allocs, budget)
	}
}

// TestDaemonAdmissionControl pins saturation behavior: a full queue
// refuses new work with ErrSaturated and counts the rejection.
func TestDaemonAdmissionControl(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	exec := func(ctx context.Context, spec ExperimentSpec, dir string) ([]byte, error) {
		started <- struct{}{}
		<-release
		return fakeExec(ctx, spec, dir)
	}
	d, err := New(Config{Shards: 1, QueueCap: 1, Exec: exec})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	mk := func(seed int64) ExperimentSpec {
		return ExperimentSpec{Kind: KindSim, Model: "LOWEST", Seed: seed}
	}
	if _, err := d.Submit(mk(1), "a"); err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	<-started // shard busy; the queue is empty again
	st2, err := d.Submit(mk(2), "b")
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	_, err = d.Submit(mk(3), "c")
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("submit at capacity = %v, want ErrSaturated", err)
	}
	// Dedup reads still succeed at capacity: resubmitting queued work
	// joins it rather than bouncing.
	stDup, err := d.Submit(mk(2), "c")
	if err != nil || !stDup.Dedup {
		t.Fatalf("dedup at capacity: st=%+v err=%v, want dedup join", stDup, err)
	}

	close(release)
	if fin := waitTerminal(t, d, st2.ID); fin.State != StateDone {
		t.Fatalf("state = %s, want done", fin.State)
	}
	s := d.Stats()
	if s.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", s.Rejected)
	}
	if s.MaxQueueDepth != 1 {
		t.Fatalf("max queue depth = %d, want 1", s.MaxQueueDepth)
	}
}

// TestDaemonFailedRetry pins that a failed spec may be resubmitted and
// retried rather than being dedup-joined to the failure forever.
func TestDaemonFailedRetry(t *testing.T) {
	calls := 0
	exec := func(ctx context.Context, spec ExperimentSpec, dir string) ([]byte, error) {
		calls++
		if calls == 1 {
			return nil, errors.New("transient blowup")
		}
		return fakeExec(ctx, spec, dir)
	}
	d, err := New(Config{Shards: 1, Exec: exec})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	spec := ExperimentSpec{Kind: KindSim, Model: "LOWEST", Seed: 1}
	st, err := d.Submit(spec, "a")
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, d, st.ID)
	if fin.State != StateFailed || fin.Error == "" {
		t.Fatalf("state = %s (%q), want failed with error", fin.State, fin.Error)
	}
	st2, err := d.Submit(spec, "a")
	if err != nil {
		t.Fatalf("resubmit after failure: %v", err)
	}
	if st2.Dedup {
		t.Fatal("resubmission of a failed spec dedup-joined the failure")
	}
	if fin := waitTerminal(t, d, st.ID); fin.State != StateDone {
		t.Fatalf("retry state = %s (%s), want done", fin.State, fin.Error)
	}
	s := d.Stats()
	if s.Executions != 2 || s.Failed != 1 || s.Completed != 1 {
		t.Fatalf("stats = %+v, want executions=2 failed=1 completed=1", s)
	}
	_ = st2
}

// TestDaemonDrainResume is the kill/restart story: SIGTERM drain
// finishes in-flight work, leaves the backlog checkpointed in the
// journal, and a fresh daemon over the same directory resumes exactly
// the unfinished experiments.
func TestDaemonDrainResume(t *testing.T) {
	dir := t.TempDir()
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	exec := func(ctx context.Context, spec ExperimentSpec, dir string) ([]byte, error) {
		started <- struct{}{}
		<-release
		return fakeExec(ctx, spec, dir)
	}
	d1, err := New(Config{Dir: dir, Shards: 1, Exec: exec})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(seed int64) ExperimentSpec {
		return ExperimentSpec{Kind: KindSim, Model: "LOWEST", Seed: seed}
	}
	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		st, err := d1.Submit(mk(seed), "a")
		if err != nil {
			t.Fatalf("submit %d: %v", seed, err)
		}
		ids = append(ids, st.ID)
	}
	<-started // seed 1 is executing; seeds 2 and 3 are queued

	drained := make(chan struct{})
	go func() {
		d1.Drain()
		close(drained)
	}()
	// Drain flips the flag before blocking on the shards; wait for it so
	// the release below cannot let the shard grab seed 2 first.
	for !d1.Stats().Draining {
		runtime.Gosched()
	}
	close(release)
	<-drained
	if st, _ := d1.Status(ids[0]); st.State != StateDone {
		t.Fatalf("in-flight experiment after drain = %s, want done", st.State)
	}
	for _, id := range ids[1:] {
		if st, _ := d1.Status(id); st.State != StateQueued {
			t.Fatalf("backlog experiment after drain = %s, want queued", st.State)
		}
	}
	// New work is refused while draining; dedup reads still answer.
	if _, err := d1.Submit(mk(9), "a"); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining = %v, want ErrDraining", err)
	}
	if st, err := d1.Submit(mk(1), "b"); err != nil || !st.Dedup {
		t.Fatalf("dedup read while draining: st=%+v err=%v", st, err)
	}
	if err := d1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Restart over the same directory with an unblocked executor.
	d2, err := New(Config{Dir: dir, Shards: 1, Exec: fakeExec})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer d2.Close()
	if got := d2.Stats().Resumed; got != 2 {
		t.Fatalf("resumed = %d, want 2 (the drained backlog)", got)
	}
	for _, id := range ids {
		if fin := waitTerminal(t, d2, id); fin.State != StateDone {
			t.Fatalf("experiment %s after restart = %s (%s), want done", id, fin.State, fin.Error)
		}
		if _, ok := d2.Result(id); !ok {
			t.Fatalf("result %s missing after restart", id)
		}
	}
	// The finished experiment's result came from the store, not a rerun.
	if ex := d2.Stats().Executions; ex != 2 {
		t.Fatalf("executions after restart = %d, want 2 (done work must not rerun)", ex)
	}
}
