package service

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"time"
)

// Execution supervision: the layer between a worker shard and the
// executor that keeps one misbehaving experiment from taking the
// daemon down with it. Four disciplines, composed in supervisedExec:
//
//   - panic isolation — an executor panic becomes a failed-with-stack
//     result for that experiment; the shard survives and keeps
//     draining the queue;
//   - execution deadlines — a run that exceeds its per-spec budget is
//     cancelled (context) and failed; a truly hung executor is
//     orphaned on a buffered channel rather than wedging the shard;
//   - bounded retries — transient failures re-run with exponential
//     backoff and deterministic jitter on the injectable Clock, up to
//     MaxAttempts;
//   - a circuit breaker — consecutive supervised failures past a
//     threshold open the breaker, and new submissions are shed with
//     503 + Retry-After until a cooldown passes; a half-open probe
//     then decides between closing it and re-arming the cooldown.

// execKind classifies one supervised attempt for the stats surface.
type execKind int

const (
	execOK execKind = iota
	execErr
	execPanic
	execTimeout
)

// outcome is what one executor attempt produced.
type outcome struct {
	b    []byte
	err  error
	kind execKind
}

// runOnce executes one attempt with panic isolation and the per-spec
// deadline. The executor runs in its own goroutine writing to a
// buffered channel: if it overruns the deadline it is cancelled and,
// should it ignore cancellation entirely, parked — the shard moves on.
func (d *Daemon) runOnce(e *Experiment, attempt int) outcome {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	//lint:allow nokernelgoroutines the outcome channel joins the supervised executor goroutine to its shard; buffered so an abandoned run can still complete its send and be collected
	done := make(chan outcome, 1)
	//lint:allow nokernelgoroutines supervision needs the executor on its own goroutine so a deadline can abandon a hung run without wedging the shard; the simulation inside stays single-threaded
	go func() {
		defer func() {
			if r := recover(); r != nil {
				//lint:allow nokernelgoroutines delivering the recovered panic to the shard; service-layer join, no simulation state
				done <- outcome{
					err:  fmt.Errorf("service: executor panicked on %s: %v\n%s", e.Spec, r, debug.Stack()),
					kind: execPanic,
				}
			}
		}()
		b, err := d.exec(ctx, e.Spec, d.expDir(e.ID))
		if err != nil {
			done <- outcome{err: err, kind: execErr} //lint:allow nokernelgoroutines service-layer join of the executor goroutine
			return
		}
		done <- outcome{b: b, kind: execOK} //lint:allow nokernelgoroutines service-layer join of the executor goroutine
	}()
	timeout := d.execTimeout(e.Spec)
	if timeout <= 0 {
		return <-done
	}
	//lint:allow nokernelgoroutines racing the executor against its deadline is the supervision layer's one legitimate select; simulations below it stay single-threaded
	select {
	case o := <-done:
		return o
	case <-d.clock.After(timeout):
		cancel() // a context-respecting executor unblocks promptly
		return outcome{
			err:  fmt.Errorf("service: %s exceeded its %v execution deadline (attempt %d)", e.Spec, timeout, attempt),
			kind: execTimeout,
		}
	}
}

// execTimeout is the per-spec execution deadline: sim runs get the
// configured budget, case/churn runs (whole tuned curves, orders of
// magnitude heavier) get eight times it. Zero disables deadlines.
func (d *Daemon) execTimeout(spec ExperimentSpec) time.Duration {
	if d.cfg.ExecTimeout <= 0 {
		return 0
	}
	if spec.Kind == KindCase || spec.Kind == KindChurn {
		return 8 * d.cfg.ExecTimeout
	}
	return d.cfg.ExecTimeout
}

// supervisedExec runs the experiment under full supervision and
// returns the final payload or the last attempt's error.
func (d *Daemon) supervisedExec(shard int, e *Experiment) ([]byte, error) {
	attempts := d.cfg.MaxAttempts
	if attempts <= 0 {
		attempts = 1
	}
	for attempt := 1; ; attempt++ {
		o := d.runOnce(e, attempt)
		switch o.kind {
		case execOK:
			return o.b, nil
		case execPanic:
			d.mu.Lock()
			d.stats.ExecPanics++
			d.mu.Unlock()
		case execTimeout:
			d.mu.Lock()
			d.stats.ExecTimeouts++
			d.mu.Unlock()
		}
		if attempt >= attempts {
			return nil, o.err
		}
		delay := retryDelay(e.ID, attempt, d.cfg.RetryBackoff)
		d.mu.Lock()
		d.stats.Retries++
		d.mu.Unlock()
		d.logEvent("exec_retry", map[string]any{
			"shard": shard, "id": e.ID, "attempt": attempt, "of": attempts,
			"backoff_ms": float64(delay.Microseconds()) / 1000, "error": o.err.Error(),
		})
		d.clock.Sleep(delay)
	}
}

// retryDelay is exponential backoff with deterministic jitter: the
// base doubles per attempt (capped at maxRetryBackoff) and up to half
// of it again is added from a hash of (experiment, attempt) — spread
// without randomness, reproducible in tests and replays.
func retryDelay(id string, attempt int, base time.Duration) time.Duration {
	if base <= 0 {
		base = defaultRetryBackoff
	}
	d := base << uint(attempt-1)
	if d > maxRetryBackoff || d <= 0 {
		d = maxRetryBackoff
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", id, attempt)
	jitter := time.Duration(h.Sum64() % uint64(d/2+1))
	return d + jitter
}

const (
	defaultRetryBackoff = 100 * time.Millisecond
	maxRetryBackoff     = 5 * time.Second
)

// breaker is the daemon's circuit breaker over supervised execution
// outcomes. Not self-locking: the daemon's mutex guards every call.
type breaker struct {
	threshold int           // consecutive failures that open it; <= 0 disables
	cooldown  time.Duration // how long it sheds before a half-open probe
	consec    int
	open      bool
	openUntil time.Time
	trips     int64
}

// allow reports whether new work may be admitted at now. An open
// breaker past its cooldown admits (half-open): the next supervised
// outcome decides whether it closes or re-arms.
func (b *breaker) allow(now time.Time) bool {
	if b.threshold <= 0 || !b.open {
		return true
	}
	return !now.Before(b.openUntil)
}

// record feeds one supervised execution outcome into the breaker.
func (b *breaker) record(ok bool, now time.Time) {
	if b.threshold <= 0 {
		return
	}
	if ok {
		b.consec = 0
		b.open = false
		return
	}
	b.consec++
	if b.consec < b.threshold {
		return
	}
	if !b.open || !now.Before(b.openUntil) {
		// A fresh trip, or a failed half-open probe re-arming the
		// cooldown — both are a transition into shedding worth counting.
		b.trips++
	}
	b.open = true
	b.openUntil = now.Add(b.cooldown)
}

// retryAfter is the whole-second hint for shed submissions.
func (b *breaker) retryAfter(now time.Time) int {
	if !b.open || !now.Before(b.openUntil) {
		return retryAfterSec
	}
	sec := int((b.openUntil.Sub(now) + time.Second - 1) / time.Second)
	if sec < 1 {
		sec = 1
	}
	return sec
}
