package sim

// Ticker fires a callback at a fixed simulated period until the kernel
// runs out of horizon. It is the building block for volunteering
// intervals, estimator digest cycles and the auditor's checkpoints. A
// grid resource's status updates keep their own tick clock instead
// (grid/resource.go): most of their ticks send nothing, so they are
// counted rather than fired.
//
// All tickers of one period on one kernel share a FIFO lane (lane.go):
// a rearm lands at now+period, and fl(t+p) is monotone in t, so the
// shared lane stays sorted and only its head has a slot in the lane
// heap.
type Ticker struct {
	k      *Kernel
	period Time
	fn     func()
	tick   func() // t.fire as a method value, built once; see NewTicker
	lane   *Lane  // the lane of the period
}

// NewTicker schedules fn every period time units, first firing one period
// from now. A non-positive period returns a ticker that never fires (the
// process is disabled), which lets callers treat "interval = 0" as "off".
//
// The rearm callback is built once here: with the period's lane warm,
// every subsequent tick rearms with zero heap allocations — every
// scheduler and estimator of a grid run carries a ticker.
func NewTicker(k *Kernel, period Time, fn func()) *Ticker {
	t := &Ticker{k: k, period: period, fn: fn}
	if period <= 0 {
		return t
	}
	t.tick = t.fire
	t.lane = k.tickerLane(period)
	t.arm()
	return t
}

// fire is the lane callback of one tick.
//
//lint:hotpath TestTickerRearmZeroAlloc pins the steady tick-rearm cycle at zero allocations per event
func (t *Ticker) fire() {
	t.fn()
	t.arm()
}

// arm queues the next tick one period from now on the period's lane.
//
//lint:hotpath the per-tick rearm; TestTickerRearmZeroAlloc pins it at zero allocations per event
func (t *Ticker) arm() { t.lane.Append(t.k.now+t.period, t.tick) }

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
