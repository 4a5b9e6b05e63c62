package sim

import (
	"fmt"
	"sync" //lint:allow nokernelgoroutines the mutex guards debug-trace buffers a monitoring goroutine may read mid-run; it protects no simulation-visible state
)

// Tracer collects named simulation events for debugging and for tests
// that assert on event sequences. It is deliberately simple: the grid
// engine and policies call Trace(kind, detail) on an optional tracer;
// a nil *Tracer is a no-op, so production runs carry zero cost.
type Tracer struct {
	mu     sync.Mutex
	k      *Kernel
	events []TraceEvent
	counts map[string]int
	limit  int
}

// TraceEvent is one recorded event.
type TraceEvent struct {
	At     Time
	Kind   string
	Detail string
}

// NewTracer attaches a tracer to a kernel. limit bounds the number of
// retained events (older events are dropped, counts keep accumulating);
// zero means 64k.
//
//lint:allow deadcode only tests attach a tracer; in-program spans are to replace it, and the engine's tracer hooks go with it
func NewTracer(k *Kernel, limit int) *Tracer {
	if limit <= 0 {
		limit = 64 * 1024
	}
	return &Tracer{k: k, counts: make(map[string]int), limit: limit}
}

// On reports whether the tracer is recording. Hot paths guard their
// Tracef calls with it: a Tracef call site materializes its variadic
// argument slice (and boxes non-pointer arguments) before the nil check
// inside Tracef can run, so an unguarded call allocates even when
// tracing is off. `if t.On() { t.Tracef(...) }` keeps a disabled-tracer
// run allocation-free. Safe on a nil receiver.
func (t *Tracer) On() bool { return t != nil }

// Trace records an event at the current simulated time. Safe on a nil
// receiver.
func (t *Tracer) Trace(kind, detail string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts[kind]++
	if len(t.events) >= t.limit {
		// Drop the oldest half rather than shifting one by one.
		copy(t.events, t.events[len(t.events)/2:])
		t.events = t.events[:len(t.events)-len(t.events)/2]
	}
	t.events = append(t.events, TraceEvent{At: t.k.Now(), Kind: kind, Detail: detail})
}

// Tracef records a formatted event. Safe on a nil receiver.
func (t *Tracer) Tracef(kind, format string, args ...any) {
	if t == nil {
		return
	}
	t.Trace(kind, fmt.Sprintf(format, args...))
}

// Count returns how many events of the kind were recorded (including
// any that aged out of the retained window).
//
//lint:allow deadcode read by the tests that attach a tracer: grid.TestEngineTracing and TestPrecedenceHoldsDependents
func (t *Tracer) Count(kind string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[kind]
}

// Events returns a copy of the retained events in time order.
//
//lint:allow deadcode read by the tests that attach a tracer: grid.TestEngineTracing and TestPrecedenceHoldsDependents
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]TraceEvent(nil), t.events...)
}
