package service

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rmscale/internal/fsutil"
)

// gateFS counts the synced appends to one file, the result log or the
// journal, and while armed holds each of them until the test releases
// it: entered receives one value per held append, before it waits.
// Closing open lets every held append through for good.
type gateFS struct {
	fsutil.RealFS
	results bool // gate the result log; false gates the journal
	armed   atomic.Bool
	appends atomic.Int64
	entered chan struct{}
	release chan struct{}
	open    chan struct{}
}

func (g *gateFS) AppendSync(f fsutil.File, b []byte) error {
	if isResultLog(f) == g.results {
		g.appends.Add(1)
		if g.armed.Load() {
			select {
			case g.entered <- struct{}{}:
			case <-g.open:
			}
			select {
			case <-g.release:
			case <-g.open:
			}
		}
	}
	return g.RealFS.AppendSync(f, b)
}

// gatedDaemon starts a daemon whose appends to one file pass through
// a gateFS. At cleanup the gate opens before the daemon closes, so a
// failing test cannot strand a held append.
func gatedDaemon(t *testing.T, results bool, cfg Config) (*Daemon, *gateFS) {
	t.Helper()
	g := &gateFS{results: results, entered: make(chan struct{}), release: make(chan struct{}), open: make(chan struct{})}
	cfg.Exec, cfg.FS = fakeExec, g
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	t.Cleanup(func() { close(g.open) })
	g.armed.Store(true)
	return d, g
}

// held waits until an append is held at the gate.
func (g *gateFS) held(t *testing.T) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("no append reached the gate")
	}
}

type answer struct {
	st  Status
	err error
}

func submitAsync(d *Daemon, spec ExperimentSpec, client string) <-chan answer {
	ch := make(chan answer, 1)
	go func() {
		st, err := d.Submit(spec, client)
		ch <- answer{st, err}
	}()
	return ch
}

// waitFor yields until cond holds; every caller waits on an event the
// daemon is already committed to.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		runtime.Gosched()
	}
}

func mustID(t *testing.T, spec ExperimentSpec) string {
	t.Helper()
	id, err := spec.ID()
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestSubmitAnswersAfterJournalAppend: a submission is answered only
// once its journal record's synced append has returned, the daemon
// keeps answering other requests while that append is in flight, a
// dedup join waits for the same append, and a join on a durable record
// does no journal IO.
func TestSubmitAnswersAfterJournalAppend(t *testing.T) {
	d, fs := gatedDaemon(t, false, Config{Dir: t.TempDir(), Shards: 1})
	spec := ExperimentSpec{Kind: KindSim, Model: "LOWEST", Seed: 1}
	id := mustID(t, spec)
	first := submitAsync(d, spec, "a")
	fs.held(t) // the record's append is in flight, the daemon mutex free
	if _, ok := d.Status(id); !ok {
		t.Fatal("status does not know a submission whose record is being appended")
	}
	join := submitAsync(d, spec, "b")
	waitFor(t, func() bool { return d.Stats().DedupHits() == 1 })
	select {
	case a := <-first:
		t.Fatalf("submission answered before its record was durable: %+v", a)
	case a := <-join:
		t.Fatalf("dedup join answered before the record it joined was durable: %+v", a)
	default:
	}
	fs.armed.Store(false)
	fs.release <- struct{}{}
	if a := <-first; a.err != nil || a.st.Dedup {
		t.Fatalf("first submission: %+v", a)
	}
	if a := <-join; a.err != nil || !a.st.Dedup {
		t.Fatalf("dedup join: %+v", a)
	}
	appends := fs.appends.Load()
	if appends != 2 {
		t.Fatalf("%d journal appends, want 2: the header and the one record both answers wait on", appends)
	}
	if st, err := d.Submit(spec, "c"); err != nil || !st.Dedup {
		t.Fatalf("durable dedup join: %+v, %v", st, err)
	}
	if fs.appends.Load() != appends {
		t.Fatal("a dedup join on a durable record appended to the journal")
	}
}

// TestCloseWaitsForJournalAppends: Close while one submission's
// journal append is in flight and another's waits behind it neither
// hangs nor drops the second record; both answer, and both are known
// to the next incarnation.
func TestCloseWaitsForJournalAppends(t *testing.T) {
	dir := t.TempDir()
	d, fs := gatedDaemon(t, false, Config{Dir: dir, Shards: 1})
	specA := ExperimentSpec{Kind: KindSim, Model: "LOWEST", Seed: 1}
	specB := ExperimentSpec{Kind: KindSim, Model: "LOWEST", Seed: 2}
	a := submitAsync(d, specA, "a")
	fs.held(t)
	b := submitAsync(d, specB, "b")
	waitFor(t, func() bool { return d.Stats().Submitted == 2 })
	closed := make(chan error, 1)
	go func() { closed <- d.Close() }()
	fs.release <- struct{}{}
	timeout := time.After(10 * time.Second)
	for pending := 3; pending > 0; {
		select {
		case <-timeout:
			t.Fatalf("%d of two submissions and Close still pending", pending)
		case <-fs.entered:
			fs.release <- struct{}{}
		case ans := <-a:
			if ans.err != nil {
				t.Fatalf("submission A: %v", ans.err)
			}
			pending--
		case ans := <-b:
			if ans.err != nil {
				t.Fatalf("submission B: %v", ans.err)
			}
			pending--
		case err := <-closed:
			if err != nil {
				t.Fatalf("Close: %v", err)
			}
			pending--
		}
	}
	if why := d.Stats().JournalDegraded; why != "" {
		t.Fatalf("journal degraded: %s", why)
	}
	d2, err := New(Config{Dir: dir, Exec: fakeExec})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for _, spec := range []ExperimentSpec{specA, specB} {
		if st := waitTerminal(t, d2, mustID(t, spec)); st.State != StateDone {
			t.Fatalf("%s after restart: %+v", spec, st)
		}
	}
}

// TestCloseWaitsForAdmittedRecord: Close does not close the journal
// while an admitted submission has yet to append its record, so the
// record lands instead of failing against a closed journal.
func TestCloseWaitsForAdmittedRecord(t *testing.T) {
	dir := t.TempDir()
	d, err := New(Config{Dir: dir, Shards: 1, Exec: fakeExec})
	if err != nil {
		t.Fatal(err)
	}
	spec := ExperimentSpec{Kind: KindSim, Model: "LOWEST", Seed: 1}
	d.mu.Lock()
	_, e, write, err := d.admitLocked(spec, mustID(t, spec), "a")
	d.mu.Unlock()
	if err != nil || !write {
		t.Fatalf("admission: write=%v err=%v", write, err)
	}
	closed := make(chan error, 1)
	go func() { closed <- d.Close() }()
	waitFor(t, func() bool {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.closed
	})
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) before the admitted record was appended", err)
	case <-time.After(50 * time.Millisecond):
	}
	d.recordSubmission(e)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if why := d.Stats().JournalDegraded; why != "" {
		t.Fatalf("journal degraded: %s", why)
	}
	d2, err := New(Config{Dir: dir, Exec: fakeExec})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if st := waitTerminal(t, d2, e.ID); st.State != StateDone {
		t.Fatalf("after restart: %+v", st)
	}
}

// TestDoneMeansDurable: an experiment is published done only after its
// result's synced append has returned, and results that finish while a
// commit is in flight share the next one.
func TestDoneMeansDurable(t *testing.T) {
	d, fs := gatedDaemon(t, true, Config{Dir: t.TempDir(), Shards: 2})
	specs := []ExperimentSpec{
		{Kind: KindSim, Model: "LOWEST", Seed: 1},
		{Kind: KindSim, Model: "LOWEST", Seed: 2},
		{Kind: KindSim, Model: "LOWEST", Seed: 3},
	}
	if _, err := d.Submit(specs[0], "c"); err != nil {
		t.Fatal(err)
	}
	fs.held(t) // the first result's commit is in flight
	first := mustID(t, specs[0])
	if st, _ := d.Status(first); st.State != StateRunning {
		t.Fatalf("experiment is %s while its result's append is in flight, want running", st.State)
	}
	for _, spec := range specs[1:] {
		if _, err := d.Submit(spec, "c"); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		d.mu.Lock()
		defer d.mu.Unlock()
		return len(d.finished) == 2
	})
	fs.release <- struct{}{}
	fs.held(t) // the other two, in one batch
	if n := fs.appends.Load(); n != 2 {
		t.Fatalf("%d result appends for three results, want 2", n)
	}
	for _, spec := range specs[1:] {
		if st, _ := d.Status(mustID(t, spec)); st.State != StateRunning {
			t.Fatalf("%s is %s while its batch's append is in flight", spec, st.State)
		}
	}
	fs.armed.Store(false)
	fs.release <- struct{}{}
	var wg sync.WaitGroup
	for _, spec := range specs {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			if st, _ := d.Wait(id); st.State != StateDone {
				t.Errorf("%s ended %s", id, st.State)
			}
		}(mustID(t, spec))
	}
	wg.Wait()
	if s := d.Stats(); s.Completed != 3 || s.Running != 0 || s.StoreLen != 3 {
		t.Fatalf("stats after three commits: %+v", s)
	}
}
