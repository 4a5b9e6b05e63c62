package service

import "time"

// Clock is the daemon's injectable time source: now-reads for log
// timestamps and latency accounting, sleeps for supervised-retry
// backoff, and timer channels for execution deadlines and the circuit
// breaker's cooldown. Production uses the wall clock; tests inject a
// fake so backoff, deadlines and breaker transitions run instantly and
// deterministically. Nothing simulation-visible ever flows from it —
// sim results depend only on the spec — which is why the wall-clock
// reads below are sanctioned, annotated exceptions to the module's
// detertaint rule.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Sleep pauses the calling goroutine for d.
	Sleep(d time.Duration)
	// After returns a channel that delivers one value once d has
	// elapsed.
	//lint:allow nokernelgoroutines the deadline timer channel is service-layer plumbing; no simulation state crosses it
	After(d time.Duration) <-chan time.Time
}

// realClock is the production Clock; its three methods are the only
// real wall-clock touch points in the service layer.
type realClock struct{}

func (realClock) Now() time.Time {
	//lint:allow detertaint the daemon timestamps logs and measures request latency; simulation results never depend on wall time
	return time.Now()
}

func (realClock) Sleep(d time.Duration) {
	//lint:allow detertaint supervised-retry backoff is real-time flow control in the daemon, outside any simulation
	time.Sleep(d)
}

//lint:allow nokernelgoroutines the deadline timer channel is service-layer plumbing; no simulation state crosses it
func (realClock) After(d time.Duration) <-chan time.Time {
	//lint:allow detertaint execution deadlines arm real timers in the daemon; the simulations they bound stay on virtual time
	return time.After(d)
}
