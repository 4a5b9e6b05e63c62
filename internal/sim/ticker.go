package sim

// Ticker fires a callback at a fixed simulated period until stopped or
// until the kernel runs out of horizon. It is the building block for
// periodic status updates, volunteering intervals, and estimator digest
// cycles.
//
// All tickers of one period on one kernel share a FIFO lane (lane.go):
// a rearm lands at now+period, and fl(t+p) is monotone in t, so the
// shared lane stays sorted and only its head occupies the future event
// list.
type Ticker struct {
	k      *Kernel
	period Time
	fn     func()
	tick   func() // t.fire as a method value, built once; see NewTicker
	lane   *Lane  // the lane of the current period
	pos    uint64 // lane position of the pending tick, valid while armed
	armed  bool
	done   bool
}

// NewTicker schedules fn every period time units, first firing one period
// from now. A non-positive period returns a stopped ticker (the process
// is disabled), which lets callers treat "interval = 0" as "off".
//
// The rearm callback is built once here: with the period's lane warm,
// every subsequent tick rearms with zero heap allocations — tickers are
// the highest-frequency periodic load in a grid run (every resource,
// estimator and scheduler carries one).
func NewTicker(k *Kernel, period Time, fn func()) *Ticker {
	t := &Ticker{k: k, period: period, fn: fn}
	t.tick = t.fire
	if period <= 0 {
		t.done = true
		return t
	}
	t.lane = k.tickerLane(period)
	t.arm()
	return t
}

// fire is the lane callback of one tick. The tick's lane item retires
// as it fires, so the position is dropped first: a Stop from inside fn
// (or later) has nothing to cancel.
//
//lint:hotpath kernel/ticker gates the steady tick-rearm cycle at zero allocations per event
func (t *Ticker) fire() {
	t.armed = false
	t.fn()
	if !t.done && !t.armed { // fn may have stopped or reset us
		t.arm()
	}
}

// arm queues the next tick one period from now on the period's lane.
//
//lint:hotpath the per-tick rearm; kernel/ticker gates it at zero allocations per event
func (t *Ticker) arm() {
	t.pos = t.lane.append(t.k.now+t.period, t.tick)
	t.armed = true
}

// Stop cancels the ticker: its pending tick never fires and never
// counts as processed. It is safe to call repeatedly and from within
// the tick callback.
func (t *Ticker) Stop() {
	t.done = true
	if t.armed {
		t.lane.cancel(t.pos)
		t.armed = false
	}
}

// Stopped reports whether the ticker has been stopped or was created
// disabled.
func (t *Ticker) Stopped() bool { return t.done }

// Period returns the configured period.
func (t *Ticker) Period() Time { return t.period }

// Reset stops the ticker and restarts it with a new period, firing one
// new period from now. A non-positive period leaves it stopped.
func (t *Ticker) Reset(period Time) {
	t.Stop()
	t.period = period
	if period > 0 {
		t.lane = t.k.tickerLane(period)
		t.done = false
		t.arm()
	}
}

// tickerLane returns the lane shared by every ticker of the period,
// creating it on first use.
func (k *Kernel) tickerLane(period Time) *Lane {
	if l := k.tickLanes[period]; l != nil {
		return l
	}
	if k.tickLanes == nil {
		k.tickLanes = make(map[Time]*Lane)
	}
	l := NewLane(k)
	k.tickLanes[period] = l
	return l
}
