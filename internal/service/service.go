// Package service is rmscaled, the long-lived experiment service: it
// wraps the repository's execution substrate — the runner's
// content-addressed cache, the audited simulation engines, the
// experiment drivers — behind a daemon that serves many concurrent
// clients.
//
// The contract is content addressing end to end. A client submits an
// ExperimentSpec; the daemon derives its deterministic content address
// (the experiment ID), and that ID is the whole coordination story:
//
//   - identical specs from any number of clients dedupe to one
//     execution, sharing one stored, byte-identical result;
//   - the result store is immutable — an ID's payload never changes
//     once written; a disk-backed daemon commits the results its
//     shards finish in batches, one synced append to its result log
//     each, and serves every read from memory;
//   - a restart resumes from the submission journal, a second Store
//     keyed by the same IDs: accepted-but-unfinished experiments
//     re-queue, finished ones are served from the result store, both
//     rebuilt from their logs.
//
// Production concerns are layered on top: a bounded job queue with
// admission control (saturation is refused, not buffered), per-client
// round-robin fairness, a configurable number of worker shards over
// the executor, graceful drain on SIGTERM with journal checkpointing,
// and structured request logging. The architectural precedent is
// Nimrod/G's persistent experiment service; the qualification story
// (thousands of objects per iteration, its dedup audit and latency
// percentiles) lives in the loadgen subpackage, and TestDedupHitAllocs
// budgets the dedup fast path's allocations.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	//lint:allow nokernelgoroutines the daemon's shard pool, state mutex and condition variable are the service layer's concurrency; simulations it runs stay single-threaded underneath
	"sync"
	"time"

	"rmscale/internal/fsutil"
	"rmscale/internal/runner"
)

// State is an experiment's lifecycle position.
type State string

// Experiment states. Queued and Running are transient; Done and
// Failed are terminal.
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == StateDone || s == StateFailed }

// Experiment is the daemon's record of one distinct submitted spec.
type Experiment struct {
	ID     string
	Spec   ExperimentSpec
	Client string // client that first submitted it
	State  State
	Err    string // non-empty iff State == StateFailed

	// journaled is done once the submitter's journal append has
	// returned; a dedup join answers only after it. Its zero value,
	// for an experiment with no append in flight, never waits.
	journaled sync.WaitGroup
}

// Status is the client-visible snapshot of an experiment.
type Status struct {
	ID    string         `json:"id"`
	State State          `json:"state"`
	Spec  ExperimentSpec `json:"spec"`
	Error string         `json:"error,omitempty"`
	// Dedup marks a submission that joined existing work (in-flight or
	// already stored) instead of queueing a new execution.
	Dedup bool `json:"dedup,omitempty"`
	// Progress carries the runner's runstate.json for a running
	// case/churn experiment, when available.
	Progress *runner.Snapshot `json:"progress,omitempty"`
}

// Stats is the daemon-wide accounting surface (the /v1/stats payload
// and the source of the load harness's gated metrics).
type Stats struct {
	Submitted     int64 `json:"submitted"`      // accepted submissions, dedup joins included
	Executions    int64 `json:"executions"`     // executions started (distinct work)
	Completed     int64 `json:"completed"`      // executions finished successfully
	Failed        int64 `json:"failed"`         // executions finished in error
	DedupInflight int64 `json:"dedup_inflight"` // submissions joined to queued/running work
	DedupStore    int64 `json:"dedup_store"`    // submissions answered from the result store
	Rejected      int64 `json:"rejected"`       // submissions refused with ErrSaturated
	Resumed       int64 `json:"resumed"`        // experiments re-queued from the journal at startup
	QueueDepth    int   `json:"queue_depth"`
	MaxQueueDepth int   `json:"max_queue_depth"`
	Running       int   `json:"running"`
	StoreLen      int   `json:"store_len"`
	Draining      bool  `json:"draining"`

	// Supervision and integrity accounting (the self-healing surface).
	Retries         int64  `json:"retries"`                    // supervised re-attempts after a failed execution try
	ExecPanics      int64  `json:"exec_panics"`                // executor panics converted to failures
	ExecTimeouts    int64  `json:"exec_timeouts"`              // executions cancelled at their deadline
	BreakerTrips    int64  `json:"breaker_trips"`              // times the circuit breaker opened
	BreakerOpen     bool   `json:"breaker_open"`               // breaker currently shedding
	Shed            int64  `json:"shed"`                       // submissions shed by the open breaker
	Reexecuted      int64  `json:"reexecuted"`                 // done experiments re-queued after GC evicted their result
	CorruptResults  int64  `json:"corrupt_results"`            // stored results that failed checksum verification at open (quarantined)
	EvictedResults  int64  `json:"evicted_results"`            // store entries evicted by GC
	QuarantineLen   int    `json:"quarantine_len"`             // corrupt results currently held in quarantine
	QuarantineGC    int64  `json:"quarantine_evicted"`         // quarantined results dropped by the quarantine bound
	StoreBytes      int64  `json:"store_bytes"`                // memory-tier payload bytes
	JournalDropped  int    `json:"journal_dropped"`            // journal lines discarded at startup: quarantined, or a torn final line
	JournalSkipped  int    `json:"journal_skipped"`            // malformed journal records skipped at startup
	StoreDegraded   string `json:"store_degraded,omitempty"`   // non-empty: store fell back to memory-only (why)
	JournalDegraded string `json:"journal_degraded,omitempty"` // non-empty: submissions no longer journaled (why)
	Degraded        bool   `json:"degraded"`                   // any degradation condition active
}

// DedupHits is the total number of submissions that shared an existing
// execution or stored result.
func (s Stats) DedupHits() int64 { return s.DedupInflight + s.DedupStore }

// Config parameterizes a Daemon.
type Config struct {
	// Dir is the service directory: the submission journal (journal/),
	// the result store (results/) and per-experiment run directories
	// (exps/) live under it. Empty runs the daemon ephemerally (memory
	// only, no resume).
	Dir string
	// Shards is the number of worker shards executing experiments
	// concurrently; <= 0 picks 2.
	Shards int
	// QueueCap bounds the admission queue; <= 0 picks 256. A full
	// queue refuses new submissions with ErrSaturated (HTTP 429).
	QueueCap int
	// CaseWorkers sizes the runner pool inside one case/churn
	// execution; <= 0 picks 1 so shards do not oversubscribe each
	// other.
	CaseWorkers int
	// Log, when non-nil, receives one structured JSON line per daemon
	// event and HTTP request.
	Log io.Writer
	// Exec overrides the executor (tests); nil uses the production
	// Executor.
	Exec ExecFunc
	// Clock overrides the time source (tests); nil uses the wall
	// clock.
	Clock Clock
	// FS overrides the durable-write seam (fault injection); nil uses
	// the real filesystem.
	FS fsutil.FS

	// MaxAttempts bounds how many times one experiment executes before
	// its failure is final; <= 0 picks 1 (no retries). Retries back off
	// exponentially with deterministic jitter on the Clock.
	MaxAttempts int
	// RetryBackoff is the first retry's backoff; <= 0 picks 100ms.
	RetryBackoff time.Duration
	// ExecTimeout is the execution deadline for one sim attempt
	// (case/churn runs get 8x); <= 0 disables deadlines.
	ExecTimeout time.Duration
	// BreakerThreshold opens the circuit breaker after that many
	// consecutive supervised failures; <= 0 disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker sheds submissions
	// before probing half-open; <= 0 picks 30s.
	BreakerCooldown time.Duration

	// StoreMaxResults / StoreMaxBytes / StoreMaxAge bound the result
	// store (LRU eviction; evicted IDs re-execute on resubmission).
	// Zero values leave the store unbounded.
	StoreMaxResults int
	StoreMaxBytes   int64
	StoreMaxAge     time.Duration
	// StoreMaxQuarantine bounds the journal's and the result store's
	// quarantine directories (oldest entries evicted first); <= 0 picks
	// DefaultMaxQuarantine.
	StoreMaxQuarantine int
}

// Daemon is a running rmscaled instance.
type Daemon struct {
	cfg     Config
	store   *Store
	journal *Store // accepted submissions by ID; nil when cfg.Dir is empty
	exec    ExecFunc
	clock   Clock

	// journaling counts submissions appending their journal record;
	// Close waits them out before it closes the journal. Add runs under
	// mu, before draining is set.
	journaling sync.WaitGroup

	mu       sync.Mutex
	cond     *sync.Cond // signalled on every experiment state change
	commit   *sync.Cond // wakes the committer: work finished or a shard exited
	exps     map[string]*Experiment
	queue    *fairQueue
	finished []finished // executions waiting for the committer
	shardsUp int        // shards not yet exited
	stats    Stats
	brk      breaker
	jDegrade string // non-empty: journaling lost to an IO error (why)
	draining bool
	closed   bool
	wg       sync.WaitGroup // the shards and the committer
}

// finished is one execution a shard hands to the committer.
type finished struct {
	shard int
	e     *Experiment
	b     []byte
	err   error
}

// submitRecord is the journaled form of one accepted submission.
type submitRecord struct {
	Spec   ExperimentSpec `json:"spec"`
	Client string         `json:"client,omitempty"`
}

// New opens the service state under cfg.Dir (journal + result store),
// re-queues journaled experiments that have no stored result, and
// starts the worker shards.
func New(cfg Config) (*Daemon, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 2
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 256
	}
	if cfg.Clock == nil {
		cfg.Clock = realClock{}
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 30 * time.Second
	}
	var resultsDir string
	if cfg.Dir != "" {
		resultsDir = filepath.Join(cfg.Dir, "results")
	}
	store, err := NewStore(StoreConfig{
		Dir:           resultsDir,
		MaxResults:    cfg.StoreMaxResults,
		MaxBytes:      cfg.StoreMaxBytes,
		MaxAge:        cfg.StoreMaxAge,
		MaxQuarantine: cfg.StoreMaxQuarantine,
		Clock:         cfg.Clock,
		FS:            cfg.FS,
	})
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		cfg:   cfg,
		store: store,
		exec:  cfg.Exec,
		clock: cfg.Clock,
		exps:  make(map[string]*Experiment),
		queue: newFairQueue(cfg.QueueCap),
		brk:   breaker{threshold: cfg.BreakerThreshold, cooldown: cfg.BreakerCooldown},
	}
	if d.exec == nil {
		d.exec = Executor{CaseWorkers: cfg.CaseWorkers}.Run
	}
	d.cond = sync.NewCond(&d.mu)
	d.commit = sync.NewCond(&d.mu)
	if cfg.Dir != "" {
		// NewStore has already replayed the result log: corrupt records
		// are quarantined and orphaned temp files swept, so resume sees
		// the healed store and the recovery summary below reports what
		// a crash actually cost.
		audit := store.Audit()
		// The journal has no GC bounds: it keeps every accepted
		// submission.
		j, err := NewStore(StoreConfig{
			Dir:           filepath.Join(cfg.Dir, "journal"),
			MaxQuarantine: cfg.StoreMaxQuarantine,
			Clock:         cfg.Clock,
			FS:            cfg.FS,
		})
		if err != nil {
			store.Close()
			return nil, err
		}
		d.journal = j
		jaudit := j.Audit()
		if dropped := jaudit.Quarantined + jaudit.Torn; dropped > 0 {
			d.stats.JournalDropped = dropped
			d.logEvent("journal_tail_dropped", map[string]any{"lines": dropped})
		}
		if err := d.resume(); err != nil {
			j.Close()
			store.Close()
			return nil, err
		}
		d.logEvent("recovery", map[string]any{
			"journal_kept":      j.Len(),
			"journal_dropped":   d.stats.JournalDropped,
			"journal_skipped":   d.stats.JournalSkipped,
			"journal_torn":      jaudit.Torn,
			"resumed":           d.stats.Resumed,
			"store_verified":    audit.Verified,
			"store_quarantined": audit.Quarantined,
			"store_torn":        audit.Torn,
			"store_rewritten":   audit.Rewritten,
			"temps_cleaned":     audit.TempsCleaned + jaudit.TempsCleaned,
		})
	}
	d.logEvent("start", map[string]any{
		"dir": cfg.Dir, "shards": cfg.Shards, "queue_cap": cfg.QueueCap,
		"resumed": d.stats.Resumed,
	})
	d.shardsUp = cfg.Shards
	d.wg.Add(cfg.Shards + 1)
	for i := 0; i < cfg.Shards; i++ {
		//lint:allow nokernelgoroutines worker shards parallelize whole experiments, the same layering as internal/runner; each shard's simulation remains single-threaded
		go d.shard(i)
	}
	//lint:allow nokernelgoroutines the committer batches the shards' results into one synced log append; it runs no simulation
	go d.committer()
	return d, nil
}

// resume replays the submission journal: every accepted experiment
// without a committed, checksum-valid result re-enters the queue
// (bypassing admission control — it was admitted by the daemon
// incarnation that journaled it), and finished ones are registered as
// done so status and result queries keep answering across restarts.
// A result whose log record failed its checksum never reached the
// store's memory tier, so that experiment re-executes instead of
// serving damaged bytes.
//
// Malformed records — payloads that do not decode as a submission, or
// whose spec no longer hashes to its own ID — are skipped with a log
// line rather than refusing to start: one damaged record must not hold
// the rest of the backlog hostage. Each visits IDs in order, so a
// restart re-queues its backlog in ID order.
//
//lint:allow locksafe resume runs inside New, before any shard goroutine or HTTP handler exists; nothing can race the fields it touches
func (d *Daemon) resume() error {
	skip := func(id string, reason string) {
		d.stats.JournalSkipped++
		d.logEvent("journal_skip", map[string]any{"id": id, "reason": reason})
	}
	return d.journal.Each(func(id string, data []byte) error {
		var rec submitRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			skip(id, err.Error())
			return nil
		}
		if specID, err := rec.Spec.ID(); err != nil {
			skip(id, err.Error())
			return nil
		} else if specID != id {
			skip(id, fmt.Sprintf("record does not address its own spec %s (hashes to %s)", rec.Spec, specID))
			return nil
		}
		e := &Experiment{ID: id, Spec: rec.Spec, Client: rec.Client}
		if d.store.Has(id) {
			e.State = StateDone
			d.exps[id] = e
			return nil
		}
		e.State = StateQueued
		d.exps[id] = e
		if err := d.queue.push(rec.Client, e, true); err != nil {
			return err
		}
		d.stats.Resumed++
		d.logEvent("resume", map[string]any{"id": id, "spec": rec.Spec.String()})
		return nil
	})
}

// Submit accepts one experiment submission from client. Identical
// specs dedupe: the returned status reports Dedup when the submission
// joined in-flight work or an already stored result. Saturation
// returns ErrSaturated; a draining daemon returns ErrDraining for new
// work (dedup reads still succeed).
//
// Admission decides under the daemon mutex; an accepted submission's
// journal record is appended after the mutex is released, and the
// answer is sent only once that append has returned, so status, result
// and dedup requests never queue behind a journal fsync. A dedup join
// waits on the record of the submission it joined.
func (d *Daemon) Submit(spec ExperimentSpec, client string) (Status, error) {
	if err := spec.Validate(); err != nil {
		return Status{}, err
	}
	id, err := spec.ID()
	if err != nil {
		return Status{}, err
	}
	d.mu.Lock()
	st, e, write, err := d.admitLocked(spec, id, client)
	d.mu.Unlock()
	switch {
	case write:
		d.recordSubmission(e)
	case e != nil:
		e.journaled.Wait() // a join answers once the record it joined is written
	}
	return d.withProgress(st), err
}

// recordSubmission appends the journal record of e, a submission just
// admitted, and then releases the answers waiting on it. A journal IO
// failure (disk full, device gone) degrades the journal store to
// memory-only, and the daemon to unjournaled operation, instead of
// refusing work: accepted experiments lose restart durability —
// surfaced through /healthz and /v1/stats — but the daemon keeps
// serving.
func (d *Daemon) recordSubmission(e *Experiment) {
	// The spec already marshalled once, into its ID.
	b, _ := json.Marshal(submitRecord{Spec: e.Spec, Client: e.Client})
	d.journal.Put(e.ID, b)
	if why, degraded := d.journal.Degraded(); degraded {
		d.mu.Lock()
		if d.jDegrade == "" {
			d.jDegrade = why
			d.logEvent("journal_degraded", map[string]any{"error": why})
		}
		d.mu.Unlock()
	}
	e.journaled.Done()
	d.journaling.Done()
}

// admitLocked decides one submission: a dedup answer, a refusal, a
// retry of a failed experiment, or a fresh enqueue. It returns the
// experiment the submission joined or created (nil when refused) and
// whether this submission must append its journal record. Callers hold
// d.mu.
func (d *Daemon) admitLocked(spec ExperimentSpec, id, client string) (st Status, e *Experiment, write bool, err error) {
	if e, ok := d.exps[id]; ok && e.State != StateFailed {
		return d.dedupLocked(e), e, false, nil
	}
	if d.store.Has(id) {
		// Stored by a previous daemon incarnation that we have no
		// in-process record of.
		e := &Experiment{ID: id, Spec: spec, Client: client, State: StateDone}
		d.exps[id] = e
		return d.dedupLocked(e), e, false, nil
	}
	if d.draining || d.closed {
		return Status{}, nil, false, ErrDraining
	}
	// Circuit breaker: consecutive executor failures shed new work
	// (dedup reads above still answer) until the cooldown passes.
	if !d.brk.allow(d.clock.Now()) {
		d.stats.Shed++
		d.logEvent("shed", map[string]any{"id": id, "client": client, "consec_failures": d.brk.consec})
		return Status{}, nil, false, fmt.Errorf("%w after %d consecutive execution failures", ErrShedding, d.brk.consec)
	}
	// Admission control: check capacity first so a refused submission
	// leaves no trace in the journal.
	if d.queue.depth() >= d.queue.cap {
		d.stats.Rejected++
		d.logEvent("reject", map[string]any{"id": id, "client": client, "queue_depth": d.queue.depth()})
		return Status{}, nil, false, fmt.Errorf("%w: %d queued (capacity %d)", ErrSaturated, d.queue.depth(), d.queue.cap)
	}
	if e, ok := d.exps[id]; ok && e.State == StateFailed {
		// Resubmitting a failed spec retries it; the journal entry from
		// the first acceptance still stands.
		e.State = StateQueued
		e.Err = ""
		if err := d.queue.push(client, e, false); err != nil {
			e.State = StateFailed
			return Status{}, nil, false, err
		}
		d.stats.Submitted++
		d.afterEnqueueLocked(e, client, true)
		return d.statusLocked(e), e, false, nil
	}
	e = &Experiment{ID: id, Spec: spec, Client: client, State: StateQueued}
	if err := d.queue.push(client, e, false); err != nil {
		// Unreachable after the capacity check above; nothing was
		// journaled yet.
		return Status{}, nil, false, err
	}
	write = d.journal != nil && d.jDegrade == ""
	if write {
		e.journaled.Add(1)
		d.journaling.Add(1)
	}
	d.exps[id] = e
	d.stats.Submitted++
	d.afterEnqueueLocked(e, client, false)
	return d.statusLocked(e), e, write, nil
}

// dedupLocked answers a submission that matched an existing
// experiment or a stored result: bump the dedup accounting and
// snapshot the status without executing anything. Callers hold d.mu.
//
//lint:hotpath TestDedupHitAllocs budgets this fast path; a dedup hit must answer within its allocation budget
func (d *Daemon) dedupLocked(e *Experiment) Status {
	d.stats.Submitted++
	if e.State == StateDone {
		d.stats.DedupStore++
	} else {
		d.stats.DedupInflight++
	}
	st := d.statusLocked(e)
	st.Dedup = true
	return st
}

// afterEnqueueLocked finishes bookkeeping common to fresh and retried
// enqueues. Callers hold d.mu.
func (d *Daemon) afterEnqueueLocked(e *Experiment, client string, retry bool) {
	if depth := d.queue.depth(); depth > d.stats.MaxQueueDepth {
		d.stats.MaxQueueDepth = depth
	}
	if d.cfg.Log != nil {
		event := "submit"
		if retry {
			event = "retry"
		}
		d.logEvent(event, map[string]any{
			"id": e.ID, "client": client, "spec": e.Spec.String(), "queue_depth": d.queue.depth(),
		})
	}
	d.cond.Broadcast()
}

// Status returns the experiment's current snapshot.
func (d *Daemon) Status(id string) (Status, bool) {
	//lint:allow locksafe the progress snapshot is one bounded runstate.json read; unlocking around it would let the experiment transition mid-snapshot
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.exps[id]
	if !ok {
		return Status{}, false
	}
	return d.withProgress(d.statusLocked(e)), true
}

// statusLocked snapshots e without its progress; callers hold d.mu.
func (d *Daemon) statusLocked(e *Experiment) Status {
	return Status{ID: e.ID, State: e.State, Spec: e.Spec, Error: e.Err}
}

// withProgress attaches the runner's runstate.json to the snapshot of
// a running case or churn experiment in a disk-backed daemon; a sim
// run writes none.
func (d *Daemon) withProgress(st Status) Status {
	if st.State != StateRunning || d.cfg.Dir == "" || st.Spec.Kind == KindSim {
		return st
	}
	if b, err := os.ReadFile(filepath.Join(d.expDir(st.ID), "runstate.json")); err == nil {
		var snap runner.Snapshot
		if json.Unmarshal(b, &snap) == nil {
			st.Progress = &snap
		}
	}
	return st
}

// Result returns the stored result payload for a done experiment.
//
// Self-healing: a done experiment whose payload is no longer servable
// — evicted by store GC — is re-queued for execution on the spot
// (bypassing admission control: it was admitted once already). The
// caller sees a miss now and the byte-identical recomputed result
// after the re-run, because the payload is a pure function of the
// content address.
func (d *Daemon) Result(id string) ([]byte, bool) {
	if b, ok := d.store.Get(id); ok {
		return b, true
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.exps[id]
	if !ok || e.State != StateDone || d.draining || d.closed {
		return nil, false
	}
	e.State = StateQueued
	e.Err = ""
	if err := d.queue.push(e.Client, e, true); err != nil {
		e.State = StateDone
		return nil, false
	}
	d.stats.Reexecuted++
	d.logEvent("reexec", map[string]any{"id": id, "spec": e.Spec.String()})
	d.cond.Broadcast()
	return nil, false
}

// Wait blocks until the experiment is terminal or the daemon closes,
// and returns the then-current snapshot; after a close it may still be
// queued or running. It reports false when the ID is unknown.
func (d *Daemon) Wait(id string) (Status, bool) {
	//lint:allow locksafe the final snapshot reads one bounded runstate.json under the lock; the state it reports must match the one the wait ended on
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		e, ok := d.exps[id]
		if !ok {
			return Status{}, false
		}
		if e.State.Terminal() || d.closed {
			return d.withProgress(d.statusLocked(e)), true
		}
		d.cond.Wait()
	}
}

// AwaitCtx blocks until the experiment's state differs from last, is
// terminal, or the daemon shuts down, and returns the then-current
// snapshot; the status stream writes each one. It reports false when
// the ID is unknown or ctx is cancelled — a streaming client hung up —
// so the wait unblocks instead of parking a goroutine on the condition
// variable until the next unrelated state change. A returned state
// equal to last means the daemon closed and no transition can follow.
func (d *Daemon) AwaitCtx(ctx context.Context, id string, last State) (Status, bool) {
	if done := ctx.Done(); done != nil {
		// Wake every cond waiter on cancellation; the mutex ensures the
		// broadcast cannot fall between a waiter's ctx check and its
		// cond.Wait.
		stop := context.AfterFunc(ctx, func() {
			d.mu.Lock()
			d.cond.Broadcast()
			d.mu.Unlock()
		})
		defer stop()
	}
	//lint:allow locksafe the wake-up snapshot reads one bounded runstate.json under the lock; the state it reports must match the transition that woke the waiter
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if ctx.Err() != nil {
			return Status{}, false
		}
		e, ok := d.exps[id]
		if !ok {
			return Status{}, false
		}
		if e.State != last || e.State.Terminal() || d.closed {
			return d.withProgress(d.statusLocked(e)), true
		}
		d.cond.Wait()
	}
}

// Stats snapshots the daemon-wide accounting, folding in the store's
// integrity counters and every active degradation condition.
func (d *Daemon) Stats() Stats {
	ss := d.store.Stats()
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.stats
	s.QueueDepth = d.queue.depth()
	s.Draining = d.draining
	s.StoreLen = ss.Len
	s.StoreBytes = ss.Bytes
	s.EvictedResults = ss.Evicted
	s.CorruptResults = ss.Corrupt
	s.QuarantineLen = ss.QuarantineLen
	s.QuarantineGC = ss.QuarantineEvicted
	s.StoreDegraded = ss.Degraded
	s.JournalDegraded = d.jDegrade
	s.BreakerOpen = d.brk.open && d.clock.Now().Before(d.brk.openUntil)
	s.Degraded = s.StoreDegraded != "" || s.JournalDegraded != "" || s.BreakerOpen
	return s
}

// Health is the /v1/healthz payload: liveness plus every degradation
// the daemon is currently operating under. The daemon answers it even
// while degraded — a breaker shedding load or a store fallen back to
// memory-only is alive, just honest about it.
type Health struct {
	Status          string `json:"status"` // "ok" or "degraded"
	Draining        bool   `json:"draining,omitempty"`
	BreakerOpen     bool   `json:"breaker_open,omitempty"`
	RetryAfterSec   int    `json:"retry_after_sec,omitempty"` // when the breaker is open: the shed hint
	StoreDegraded   string `json:"store_degraded,omitempty"`
	JournalDegraded string `json:"journal_degraded,omitempty"`
}

// Health snapshots the daemon's degradation surface.
func (d *Daemon) Health() Health {
	sd, _ := d.store.Degraded()
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.clock.Now()
	h := Health{
		Status:          "ok",
		Draining:        d.draining,
		BreakerOpen:     d.brk.open && now.Before(d.brk.openUntil),
		StoreDegraded:   sd,
		JournalDegraded: d.jDegrade,
	}
	if h.BreakerOpen {
		h.RetryAfterSec = d.brk.retryAfter(now)
	}
	if h.BreakerOpen || h.StoreDegraded != "" || h.JournalDegraded != "" {
		h.Status = "degraded"
	}
	return h
}

// retryAfterHint is the Retry-After seconds for a shed submission.
func (d *Daemon) retryAfterHint() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.brk.retryAfter(d.clock.Now())
}

// expDir is the experiment's private run directory (the runner's disk
// cache and runstate.json, for case/churn kinds).
func (d *Daemon) expDir(id string) string {
	if d.cfg.Dir == "" {
		return ""
	}
	//lint:allow hotalloc path assembly happens only in the disk-backed progress branch, never on the in-memory dedup answer
	return filepath.Join(d.cfg.Dir, "exps", id)
}

// nextQueued hands the shard's finished execution, if any, to the
// committer, then blocks until an experiment is available and marks it
// running. When the daemon is draining or closed it counts the shard
// out and returns nil.
func (d *Daemon) nextQueued(done finished) *Experiment {
	d.mu.Lock()
	defer d.mu.Unlock()
	if done.e != nil {
		d.finished = append(d.finished, done)
		d.commit.Signal()
	}
	for {
		if d.closed || d.draining {
			d.shardsUp--
			d.commit.Signal()
			return nil
		}
		if e, ok := d.queue.pop(); ok {
			e.State = StateRunning
			d.stats.Executions++
			d.stats.Running++
			d.cond.Broadcast()
			return e
		}
		d.cond.Wait()
	}
}

// shard is one worker loop: pop, execute under supervision (panic
// isolation, deadline, bounded retries), hand the outcome to the
// committer and pop the next experiment at once. On drain it finishes
// its current experiment and exits; queued work stays journaled for
// the next incarnation.
func (d *Daemon) shard(i int) {
	defer d.wg.Done()
	var done finished
	for {
		e := d.nextQueued(done)
		if e == nil {
			return
		}
		if d.cfg.Log != nil {
			d.logEvent("exec", map[string]any{"shard": i, "id": e.ID, "spec": e.Spec.String()})
		}
		b, err := d.supervisedExec(i, e)
		done = finished{shard: i, e: e, b: b, err: err}
	}
}

// committer commits what the shards finish. It takes every execution
// waiting, stores the successful payloads with one batch commit (one
// synced append to the result log), and only then marks the batch done
// or failed, so a done experiment's result is always durable. A batch
// is whatever waited when the commit began. It exits once every shard
// has exited and nothing is left to commit.
func (d *Daemon) committer() {
	defer d.wg.Done()
	var batch []finished
	var items []StoreItem
	for {
		d.mu.Lock()
		for len(d.finished) == 0 && d.shardsUp > 0 {
			d.commit.Wait()
		}
		if len(d.finished) == 0 {
			d.mu.Unlock()
			return
		}
		batch, d.finished = d.finished, batch
		d.mu.Unlock()
		items = items[:0]
		for _, f := range batch {
			if f.err == nil {
				items = append(items, StoreItem{ID: f.e.ID, Data: f.b})
			}
		}
		if len(items) > 0 {
			d.store.PutBatch(items)
		}
		d.publish(batch)
		clear(batch)
		batch = batch[:0]
	}
}

// publish marks a committed batch terminal, feeds each outcome to the
// breaker and wakes every waiter once.
func (d *Daemon) publish(batch []finished) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, f := range batch {
		e := f.e
		d.stats.Running--
		d.brk.record(f.err == nil, d.clock.Now())
		if d.brk.open && d.brk.trips > d.stats.BreakerTrips {
			d.stats.BreakerTrips = d.brk.trips
			d.logEvent("breaker_open", map[string]any{
				"consec_failures": d.brk.consec, "cooldown_sec": d.cfg.BreakerCooldown.Seconds(),
			})
		}
		if f.err != nil {
			e.State = StateFailed
			e.Err = f.err.Error()
			d.stats.Failed++
			d.logEvent("fail", map[string]any{"shard": f.shard, "id": e.ID, "error": f.err.Error()})
		} else {
			e.State = StateDone
			d.stats.Completed++
			if d.cfg.Log != nil {
				d.logEvent("done", map[string]any{"shard": f.shard, "id": e.ID, "bytes": len(f.b)})
			}
		}
	}
	d.cond.Broadcast()
}

// Drain begins a graceful shutdown: new work is refused (dedup reads
// still answer), shards finish their current experiments and stop, and
// everything still queued stays checkpointed in the journal for the
// next start. Drain blocks until the shards have exited and the
// committer has committed and published what they finished.
func (d *Daemon) Drain() {
	d.mu.Lock()
	already := d.draining
	d.draining = true
	d.cond.Broadcast()
	queued := d.queue.depth()
	d.mu.Unlock()
	if !already {
		d.logEvent("drain", map[string]any{"queued": queued})
	}
	d.wg.Wait()
}

// Close drains the daemon, waits for submissions still appending
// their journal record, and releases the journal and the result log.
// Safe to call more than once.
func (d *Daemon) Close() error {
	d.Drain()
	d.mu.Lock()
	d.closed = true
	d.cond.Broadcast()
	d.mu.Unlock()
	d.journaling.Wait()
	d.logEvent("close", nil)
	err := d.store.Close()
	if d.journal != nil {
		if jerr := d.journal.Close(); err == nil {
			err = jerr
		}
	}
	return err
}

// logEvent writes one structured JSON log line. Field maps marshal
// with sorted keys, so log output is stable for tests. Per-experiment
// call sites check cfg.Log first, so a daemon without a log builds no
// field maps.
func (d *Daemon) logEvent(event string, fields map[string]any) {
	if d.cfg.Log == nil {
		return
	}
	line := map[string]any{
		"ts":    d.clock.Now().UTC().Format("2006-01-02T15:04:05.000Z07:00"),
		"event": event,
	}
	for k, v := range fields { //lint:orderindependent both maps marshal below with sorted keys
		line[k] = v
	}
	b, err := json.Marshal(line)
	if err != nil {
		return
	}
	fmt.Fprintf(d.cfg.Log, "%s\n", b)
}
