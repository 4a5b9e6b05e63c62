package sim

import "testing"

// BenchmarkKernel is the canonical kernel hot-path benchmark: a
// steady-state population of self-rescheduling events, the pattern the
// grid engine drives (tickers, Exec chains, message deliveries keep a
// roughly constant number of events in flight while millions fire).
// allocs/op here is allocs per event processed, the number
// TestScheduleFireZeroAlloc pins at zero.
func BenchmarkKernel(b *testing.B) {
	const inflight = 512
	b.ReportAllocs()
	k := NewKernel()
	fns := make([]func(), inflight)
	for i := range fns {
		i := i
		fns[i] = func() { k.After(Time(1+i%7), fns[i]) }
	}
	for i, fn := range fns {
		k.Schedule(Time(i%7), fn)
	}
	b.ResetTimer()
	runFor(k, uint64(b.N))
}

// BenchmarkKernelBulk is the cold-start pattern: a large batch scheduled
// up front (job arrivals), then drained in time order.
func BenchmarkKernelBulk(b *testing.B) {
	const batch = 4096
	b.ReportAllocs()
	noop := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		for j := 0; j < batch; j++ {
			k.Schedule(Time(j%401), noop)
		}
		k.Run(Infinity)
	}
}

// BenchmarkTickerCycle measures one full ticker period: the rearm path
// must not allocate once the period's lane is warm.
func BenchmarkTickerCycle(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	NewTicker(k, 1, func() {})
	b.ResetTimer()
	runFor(k, uint64(b.N))
}

// newLanesMix builds the event mix of a figure sweep, where most
// events are lane items: about 150 self-rescheduling plain events in
// flight over a deep event heap, 240 tickers at staggered phases
// sharing one lane, a self-refilling arrival lane, and 24 sparse server
// lanes fed by two plain submitters. It returns the kernel two ticker
// periods in, with every ticker started and every ring warm.
func newLanesMix() *Kernel {
	k := NewKernel()
	noop := func() {}
	for i := 0; i < 150; i++ {
		var fn func()
		d := Time(20 + i%61)
		fn = func() { k.After(d, fn) }
		k.Schedule(Time(i)/3, fn)
	}
	const period = 40
	for i := 0; i < 240; i++ {
		k.Schedule(Time(i)*period/240, func() { NewTicker(k, period, noop) })
	}
	arrivals := NewLane(k)
	var arrive func()
	arrive = func() { arrivals.Append(k.Now()+0.7, arrive) }
	arrivals.Append(0, arrive)
	servers := make([]*Lane, 24)
	busy := make([]Time, len(servers))
	for i := range servers {
		servers[i] = NewLane(k)
	}
	for j := 0; j < 2; j++ {
		next := j
		var submit func()
		submit = func() {
			s := next % len(servers)
			next += 2
			busy[s] = max(busy[s], k.Now()) + 3
			servers[s].Append(busy[s], noop)
			k.After(1.3, submit)
		}
		k.Schedule(0, submit)
	}
	k.Run(2 * period)
	return k
}

// BenchmarkKernelLanes times the figure-sweep event mix of
// newLanesMix; TestKernelLanesZeroAlloc pins its allocations at zero.
func BenchmarkKernelLanes(b *testing.B) {
	b.ReportAllocs()
	k := newLanesMix()
	b.ResetTimer()
	runFor(k, uint64(b.N))
}
