// Package chaos is the service-level chaos harness for rmscaled: it
// drives a live daemon through scripted faults and asserts the
// self-healing contract the service advertises.
//
// Four phases, one report:
//
//  1. reference — a fault-free daemon executes every spec once; its
//     payloads are the byte-exact ground truth (content addressing
//     makes any later recomputation comparable).
//  2. exec faults — a daemon whose executor panics, hangs past its
//     deadline or fails transiently on scripted specs is driven over
//     the real HTTP surface by concurrent clients — the
//     internal/service/client users run — that also hang up
//     mid-stream on schedule. Every experiment must still finish and
//     fetch byte-identical to the reference; the daemon must stay
//     alive and healthy.
//  3. restart faults — the daemon's directory is damaged the way
//     crashes damage it (a logged result corrupted under its
//     checksum, the journal's log torn mid-record) and a fresh daemon
//     reopens it. The valid prefix must resume, the corrupt result
//     must quarantine and re-execute, the torn submission must rerun
//     on resubmission — all byte-identical.
//  4. disk faults — a daemon over a flaky filesystem (every k-th
//     durable result write fails) must degrade to memory-only
//     operation, keep completing and serving work, and surface the
//     degradation through its health endpoint rather than exiting.
//
// Any violated assertion lands in Report.Failures; Run never panics
// the harness on daemon misbehavior — CI wants the full list.
package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	//lint:allow nokernelgoroutines the harness coordinates concurrent chaos clients against the daemon; the simulations inside stay single-threaded
	"sync"
	"time"

	"rmscale/internal/fsutil"
	"rmscale/internal/service"
	"rmscale/internal/service/client"
)

// Options configures one chaos run.
type Options struct {
	// Dir is the harness working directory (service dirs for the chaos
	// and degraded daemons live under it). Required.
	Dir string
	// Specs is the number of distinct experiment specs driven through
	// every phase; <= 0 picks 12.
	Specs int
	// Clients is the number of concurrent chaos clients; <= 0 picks 3.
	Clients int
	// Seed diversifies the spec set; same seed, same specs, same
	// fault schedule. 0 picks 1.
	Seed int64
	// Horizon is each sim spec's simulated duration; <= 0 picks 120
	// (a millisecond-scale simulation).
	Horizon float64
	// PanicEvery / HangEvery / FailEvery schedule executor faults: the
	// j-th spec's first execution attempt panics when j%PanicEvery ==
	// 1, hangs past its deadline when j%HangEvery == 2, fails with an
	// error when j%FailEvery == 0 (first match wins). <= 0 picks 5, 7
	// and 3.
	PanicEvery int
	HangEvery  int
	FailEvery  int
	// DisconnectEvery hangs up every k-th result stream after its
	// first status line; <= 0 picks 4.
	DisconnectEvery int
	// FlakyWriteEvery fails every k-th durable result write in the
	// disk-fault phase; <= 0 picks 2.
	FlakyWriteEvery int
	// ExecTimeout is the chaos daemon's per-sim deadline (hung
	// executions are cancelled at it); <= 0 picks 300ms.
	ExecTimeout time.Duration
	// Log, when non-nil, receives phase progress lines.
	Log io.Writer
}

func (o *Options) defaults() error {
	if o.Dir == "" {
		return fmt.Errorf("chaos: Options.Dir is required")
	}
	if o.Specs <= 0 {
		o.Specs = 12
	}
	if o.Clients <= 0 {
		o.Clients = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Horizon <= 0 {
		o.Horizon = 120
	}
	if o.PanicEvery <= 0 {
		o.PanicEvery = 5
	}
	if o.HangEvery <= 0 {
		o.HangEvery = 7
	}
	if o.FailEvery <= 0 {
		o.FailEvery = 3
	}
	if o.DisconnectEvery <= 0 {
		o.DisconnectEvery = 4
	}
	if o.FlakyWriteEvery <= 0 {
		o.FlakyWriteEvery = 2
	}
	if o.ExecTimeout <= 0 {
		o.ExecTimeout = 300 * time.Millisecond
	}
	return nil
}

// Report is the chaos run's outcome — the CI artifact.
type Report struct {
	Specs   int `json:"specs"`
	Clients int `json:"clients"`

	// Faults injected.
	PanicsInjected int `json:"panics_injected"`
	HangsInjected  int `json:"hangs_injected"`
	ErrorsInjected int `json:"errors_injected"`
	Disconnects    int `json:"disconnects"`
	WriteFaults    int `json:"write_faults"`

	// What the daemon reported absorbing.
	ExecPanics     int64 `json:"exec_panics"`
	ExecTimeouts   int64 `json:"exec_timeouts"`
	Retries        int64 `json:"retries"`
	JournalDropped int   `json:"journal_dropped"`
	CorruptResults int64 `json:"corrupt_results"`
	Resumed        int64 `json:"resumed"`
	StoreDegraded  bool  `json:"store_degraded"`

	// Verification.
	Verified   int      `json:"verified"` // results compared byte-exact against the reference
	Mismatched int      `json:"mismatched"`
	Failures   []string `json:"failures,omitempty"`
	OK         bool     `json:"ok"`
}

// faultKind schedules one spec's first-attempt executor fault.
type faultKind int

const (
	faultNone faultKind = iota
	faultPanic
	faultHang
	faultError
)

// faultAt is the j-th spec's scheduled fault (first match wins).
func faultAt(o Options, j int) faultKind {
	switch {
	case j%o.PanicEvery == 1:
		return faultPanic
	case j%o.HangEvery == 2:
		return faultHang
	case j%o.FailEvery == 0:
		return faultError
	}
	return faultNone
}

// resultLogName is the result store's log file inside DIR/results.
const resultLogName = "results.log"

// FaultFS is the injectable filesystem fault: every k-th durable
// result write — an atomic file write, or an append to the result
// log — fails; every other operation (journal appends included)
// passes through to the embedded real filesystem, so successful
// writes are real writes.
type FaultFS struct {
	fsutil.RealFS

	// Every fails each Every-th durable result write; <= 0 never
	// fails.
	Every int

	mu     sync.Mutex
	n      int
	faults int
}

// fault counts one durable result write to path and reports the
// injected error when it is scheduled to fail.
func (f *FaultFS) fault(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if f.Every <= 0 || f.n%f.Every != 0 {
		return nil
	}
	f.faults++
	return fmt.Errorf("chaos: injected write fault on durable write #%d (%s)", f.n, filepath.Base(path))
}

// WriteFileAtomic counts the write and fails on schedule.
func (f *FaultFS) WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	if err := f.fault(path); err != nil {
		return err
	}
	return f.RealFS.WriteFileAtomic(path, data, perm)
}

// AppendSync counts an append to the result log and fails it on
// schedule; journal appends pass through.
func (f *FaultFS) AppendSync(file fsutil.File, b []byte) error {
	if filepath.Base(file.Name()) == resultLogName {
		if err := f.fault(file.Name()); err != nil {
			return err
		}
	}
	return f.RealFS.AppendSync(file, b)
}

// Faults reports how many writes were failed so far.
func (f *FaultFS) Faults() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.faults
}

// run carries one chaos run's state.
type run struct {
	opts  Options
	rep   Report
	specs []service.ExperimentSpec
	ids   []string
	ref   map[string][]byte // id -> fault-free payload
}

func (r *run) logf(format string, args ...any) {
	if r.opts.Log != nil {
		fmt.Fprintf(r.opts.Log, "chaos: "+format+"\n", args...)
	}
}

func (r *run) failf(format string, args ...any) {
	r.rep.Failures = append(r.rep.Failures, fmt.Sprintf(format, args...))
}

// verify compares a fetched payload against the reference.
func (r *run) verify(id string, b []byte, phase string) {
	r.rep.Verified++
	if !bytes.Equal(b, r.ref[id]) {
		r.rep.Mismatched++
		r.failf("%s: result %s differs from the fault-free reference (%d vs %d bytes)", phase, id, len(b), len(r.ref[id]))
	}
}

// Run executes the full chaos scenario and returns its report. The
// returned error covers harness-level problems (bad options, a daemon
// that cannot start at all); daemon misbehavior under fault lands in
// Report.Failures with OK=false.
func Run(opts Options) (Report, error) {
	if err := opts.defaults(); err != nil {
		return Report{}, err
	}
	r := &run{opts: opts, rep: Report{Specs: opts.Specs, Clients: opts.Clients}, ref: make(map[string][]byte)}
	r.specs = make([]service.ExperimentSpec, opts.Specs)
	r.ids = make([]string, opts.Specs)
	for j := range r.specs {
		r.specs[j] = service.SpecAt(opts.Seed, opts.Horizon, j)
		id, err := r.specs[j].ID()
		if err != nil {
			return r.rep, err
		}
		r.ids[j] = id
	}
	if err := r.reference(); err != nil {
		return r.rep, err
	}
	if err := r.execFaults(); err != nil {
		return r.rep, err
	}
	if err := r.restartFaults(); err != nil {
		return r.rep, err
	}
	if err := r.diskFaults(); err != nil {
		return r.rep, err
	}
	r.rep.OK = len(r.rep.Failures) == 0
	return r.rep, nil
}

// reference runs every spec fault-free and records the ground-truth
// payloads.
func (r *run) reference() error {
	d, err := service.New(service.Config{Shards: 2})
	if err != nil {
		return fmt.Errorf("chaos: reference daemon: %w", err)
	}
	defer d.Close()
	for j, spec := range r.specs {
		st, err := d.Submit(spec, "chaos-ref")
		if err != nil {
			return fmt.Errorf("chaos: reference submit %s: %w", spec, err)
		}
		fin, _ := d.Wait(st.ID)
		if fin.State != service.StateDone {
			return fmt.Errorf("chaos: reference execution %s ended %s: %s", spec, fin.State, fin.Error)
		}
		b, ok := d.Result(st.ID)
		if !ok {
			return fmt.Errorf("chaos: reference result %s missing", st.ID)
		}
		r.ref[r.ids[j]] = append([]byte(nil), b...)
	}
	r.logf("reference: %d specs executed fault-free", len(r.specs))
	return nil
}

// execFaults drives the daemon through executor and client faults
// over the real HTTP surface.
func (r *run) execFaults() error {
	o := r.opts
	dir := filepath.Join(o.Dir, "service")
	faults := make(map[string]faultKind, len(r.ids))
	for j, id := range r.ids {
		k := faultAt(o, j)
		faults[id] = k
		switch k {
		case faultPanic:
			r.rep.PanicsInjected++
		case faultHang:
			r.rep.HangsInjected++
		case faultError:
			r.rep.ErrorsInjected++
		}
	}

	var mu sync.Mutex
	attempts := make(map[string]int, len(r.ids))
	real := service.Executor{}.Run
	exec := func(ctx context.Context, spec service.ExperimentSpec, dir string) ([]byte, error) {
		id, err := spec.ID()
		if err != nil {
			return nil, err
		}
		mu.Lock()
		attempts[id]++
		first := attempts[id] == 1
		mu.Unlock()
		if first {
			switch faults[id] {
			case faultPanic:
				panic(fmt.Sprintf("chaos: scripted panic for %s", spec))
			case faultHang:
				<-ctx.Done() // ignore work, hold the slot until the deadline cancels us
				return nil, ctx.Err()
			case faultError:
				return nil, fmt.Errorf("chaos: scripted transient failure for %s", spec)
			}
		}
		return real(ctx, spec, dir)
	}

	d, err := service.New(service.Config{
		Dir: dir, Shards: 2, Exec: exec,
		MaxAttempts: 3, RetryBackoff: 2 * time.Millisecond,
		ExecTimeout: o.ExecTimeout, BreakerThreshold: 8, BreakerCooldown: 200 * time.Millisecond,
	})
	if err != nil {
		return fmt.Errorf("chaos: chaos daemon: %w", err)
	}
	alive := true
	defer func() {
		if alive {
			d.Close()
		}
	}()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: service.NewServer(d).Handler()}
	//lint:allow nokernelgoroutines the HTTP server needs its own accept loop while the chaos clients drive requests
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	var wg sync.WaitGroup
	errs := make([]error, o.Clients)
	disconnects := make([]int, o.Clients)
	for c := 0; c < o.Clients; c++ {
		wg.Add(1)
		//lint:allow nokernelgoroutines one goroutine per concurrent chaos client is the harness's reason to exist
		go func(c int) {
			defer wg.Done()
			cl := &client.Client{Base: base, ID: fmt.Sprintf("chaos-%d", c), RetryFor: client.DefaultRetryFor}
			for j := c; j < len(r.specs); j += o.Clients {
				id := r.ids[j]
				if _, err := cl.Submit(r.specs[j]); err != nil {
					errs[c] = err
					return
				}
				if j%o.DisconnectEvery == 0 {
					// The scripted disconnect: hang up after one line.
					cl.Watch(id, func(service.Status) bool { return false })
					disconnects[c]++
				}
				fin, err := cl.Watch(id, nil)
				if err != nil {
					errs[c] = err
					return
				}
				if fin.State != service.StateDone {
					errs[c] = fmt.Errorf("experiment %s ended %s under exec faults: %s", id, fin.State, fin.Error)
					return
				}
				b, err := cl.Result(id)
				if err != nil {
					errs[c] = err
					return
				}
				r.verifyLocked(&mu, id, b, "exec-faults")
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			r.failf("exec-faults: client %d: %v", c, err)
		}
	}
	for _, n := range disconnects {
		r.rep.Disconnects += n
	}

	// The daemon is alive and honest about what it absorbed.
	if _, err := (&client.Client{Base: base}).Health(); err != nil {
		r.failf("exec-faults: daemon unhealthy after faults: %v", err)
	}
	s := d.Stats()
	r.rep.ExecPanics = s.ExecPanics
	r.rep.ExecTimeouts = s.ExecTimeouts
	r.rep.Retries = s.Retries
	if s.ExecPanics < int64(r.rep.PanicsInjected) {
		r.failf("exec-faults: daemon absorbed %d panics, %d injected", s.ExecPanics, r.rep.PanicsInjected)
	}
	if s.ExecTimeouts < int64(r.rep.HangsInjected) {
		r.failf("exec-faults: daemon absorbed %d timeouts, %d hangs injected", s.ExecTimeouts, r.rep.HangsInjected)
	}
	r.logf("exec-faults: %d specs, %d panics, %d hangs, %d errors, %d disconnects; retries=%d",
		len(r.specs), r.rep.PanicsInjected, r.rep.HangsInjected, r.rep.ErrorsInjected, r.rep.Disconnects, s.Retries)
	alive = false
	if err := d.Close(); err != nil {
		r.failf("exec-faults: close: %v", err)
	}
	return nil
}

// verifyLocked serializes verify calls from concurrent clients.
func (r *run) verifyLocked(mu *sync.Mutex, id string, b []byte, phase string) {
	mu.Lock()
	defer mu.Unlock()
	r.verify(id, b, phase)
}

// restartFaults damages the chaos daemon's directory the way crashes
// do, restarts over it and verifies full recovery.
func (r *run) restartFaults() error {
	dir := filepath.Join(r.opts.Dir, "service")
	jpath := filepath.Join(dir, "journal", "journal.log")

	// Tear the journal's final record in half, remembering whose it
	// was so the harness can resubmit it.
	jb, err := os.ReadFile(jpath)
	if err != nil {
		return fmt.Errorf("chaos: reading journal: %w", err)
	}
	lines := bytes.Split(bytes.TrimSuffix(jb, []byte("\n")), []byte("\n"))
	last := lines[len(lines)-1]
	var lastRec struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(last, &lastRec); err != nil {
		return fmt.Errorf("chaos: parsing last journal record: %w", err)
	}
	tornID := lastRec.ID
	if err := os.WriteFile(jpath, jb[:len(jb)-len(last)/2-1], 0o644); err != nil {
		return err
	}

	// Corrupt a different spec's logged payload under its checksum.
	corruptID := ""
	for _, id := range r.ids {
		if id != tornID {
			corruptID = id
			break
		}
	}
	lpath := filepath.Join(dir, "results", resultLogName)
	lb, err := os.ReadFile(lpath)
	if err != nil {
		return fmt.Errorf("chaos: reading result log to corrupt: %w", err)
	}
	rec := bytes.Index(lb, []byte(`{"id":"`+corruptID+`"`))
	data := bytes.Index(lb[max(rec, 0):], []byte(`"data":"`))
	if rec < 0 || data < 0 {
		return fmt.Errorf("chaos: no logged result for %s", corruptID)
	}
	copy(lb[rec+data+len(`"data":"`):], "AAAA")
	if err := os.WriteFile(lpath, lb, 0o644); err != nil {
		return err
	}

	d, err := service.New(service.Config{Dir: dir, Shards: 2})
	if err != nil {
		r.failf("restart-faults: daemon refused to reopen the damaged directory: %v", err)
		return nil
	}
	defer d.Close()
	s := d.Stats()
	r.rep.JournalDropped = s.JournalDropped
	r.rep.Resumed = s.Resumed
	if s.JournalDropped != 1 {
		r.failf("restart-faults: journal_dropped = %d, want 1 (the torn record)", s.JournalDropped)
	}
	if s.Resumed < 1 {
		r.failf("restart-faults: resumed = %d, want >= 1 (the corrupted result re-queued)", s.Resumed)
	}

	// The torn submission is unknown; resubmitting reruns it.
	if _, ok := d.Status(tornID); ok {
		r.failf("restart-faults: torn journal record %s resurrected", tornID)
	}
	for j, id := range r.ids {
		if id == tornID {
			if _, err := d.Submit(r.specs[j], "chaos-restart"); err != nil {
				r.failf("restart-faults: resubmitting torn spec: %v", err)
			}
		}
	}
	// Every spec must come back done with reference-identical bytes;
	// the corrupted one via quarantine and re-execution.
	for _, id := range r.ids {
		fin, _ := d.Wait(id)
		if fin.State != service.StateDone {
			r.failf("restart-faults: %s ended %q after restart: %s", id, fin.State, fin.Error)
			continue
		}
		b, ok := d.Result(id)
		if !ok {
			r.failf("restart-faults: result %s unavailable after restart", id)
			continue
		}
		r.verify(id, b, "restart-faults")
	}
	s = d.Stats()
	r.rep.CorruptResults = s.CorruptResults
	if s.CorruptResults < 1 {
		r.failf("restart-faults: corrupt_results = %d, want >= 1 (the damaged payload)", s.CorruptResults)
	}
	r.logf("restart-faults: torn record %s rerun, corrupt result %s quarantined and re-executed", tornID[:8], corruptID[:8])
	return nil
}

// diskFaults runs a daemon over a flaky filesystem and verifies
// graceful degradation to memory-only operation.
func (r *run) diskFaults() error {
	dir := filepath.Join(r.opts.Dir, "degraded")
	fs := &FaultFS{Every: r.opts.FlakyWriteEvery}
	d, err := service.New(service.Config{Dir: dir, Shards: 1, FS: fs})
	if err != nil {
		return fmt.Errorf("chaos: degraded daemon: %w", err)
	}
	defer d.Close()
	n := len(r.specs)
	if n > 4 {
		n = 4
	}
	for j := 0; j < n; j++ {
		st, err := d.Submit(r.specs[j], "chaos-disk")
		if err != nil {
			r.failf("disk-faults: submit %s: %v", r.specs[j], err)
			continue
		}
		fin, _ := d.Wait(st.ID)
		if fin.State != service.StateDone {
			r.failf("disk-faults: %s ended %s under flaky writes: %s", st.ID, fin.State, fin.Error)
			continue
		}
		b, ok := d.Result(st.ID)
		if !ok {
			r.failf("disk-faults: result %s unavailable under flaky writes", st.ID)
			continue
		}
		r.verify(st.ID, b, "disk-faults")
	}
	r.rep.WriteFaults = fs.Faults()
	h := d.Health()
	r.rep.StoreDegraded = h.StoreDegraded != ""
	if fs.Faults() > 0 && !r.rep.StoreDegraded {
		r.failf("disk-faults: %d writes failed but the store never reported degradation", fs.Faults())
	}
	if h.Status != "degraded" && fs.Faults() > 0 {
		r.failf("disk-faults: health %q with %d write faults, want degraded", h.Status, fs.Faults())
	}
	r.logf("disk-faults: %d specs served through %d injected write faults (degraded=%v)", n, fs.Faults(), r.rep.StoreDegraded)
	return nil
}
