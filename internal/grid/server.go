package grid

import (
	"rmscale/internal/sim"
)

// server is the FCFS single-CPU queue behind every RMS node that
// charges service time: the scheduler, the estimator and the S-I
// middleware. Accepted work queues behind busyUntil and retires in
// acceptance order.
//
// busyUntil never decreases — finish = max(busyUntil, now) + busy with
// busy >= 0, and a crash only bumps epoch — so completions are appended
// to a kernel lane (sim.Lane) in time order and only the next one sits
// in the future event list. The completing item is always the oldest in
// the FIFO, so one retire callback, built once, pops it: no per-item
// closure wraps the work.
type server struct {
	busyUntil sim.Time
	// epoch invalidates queued work when a crash destroys the CPU
	// state (see faults.go): an item runs only under the epoch it was
	// accepted in.
	epoch  int
	lane   *sim.Lane
	retire func()
	// queue is a ring buffer (power-of-two length) of the n accepted
	// items not yet retired, oldest at head.
	queue   []work
	head, n int
}

// work is one accepted item.
type work struct {
	fn    func()
	epoch int
	// fwd is the middleware's onward network leg, started when the
	// item retires; unused by the scheduler and estimator CPUs.
	fwd sim.Time
}

// init attaches the server to the kernel; retire runs once per
// completion and must pop the completed item with next.
func (sv *server) init(k *sim.Kernel, retire func()) {
	sv.lane = sim.NewLane(k)
	sv.retire = retire
}

// submit accepts w for busy time units of service behind the work
// already queued and returns the time its service starts.
//
//lint:hotpath every scheduler, estimator and middleware work item is queued here; TestSchedulerExecZeroAlloc pins it allocation-free once the ring is warm
func (sv *server) submit(now, busy sim.Time, w work) (start sim.Time) {
	start = sv.busyUntil
	if start < now {
		start = now
	}
	finish := start + busy
	sv.busyUntil = finish
	w.epoch = sv.epoch
	if sv.n == len(sv.queue) {
		sv.grow()
	}
	sv.queue[(sv.head+sv.n)&(len(sv.queue)-1)] = w
	sv.n++
	sv.lane.Append(finish, sv.retire)
	return start
}

// next pops the oldest accepted item, the one whose service just
// completed.
func (sv *server) next() work {
	w := sv.queue[sv.head]
	sv.queue[sv.head] = work{}
	sv.head = (sv.head + 1) & (len(sv.queue) - 1)
	sv.n--
	return w
}

// runGuarded is the scheduler and estimator retire callback: the
// completed item runs unless a crash has bumped the epoch since it was
// accepted.
//
//lint:hotpath the retire path of every scheduler and estimator work item
func (sv *server) runGuarded() {
	if w := sv.next(); w.epoch == sv.epoch {
		w.fn()
	}
}

// grow doubles the ring, unrolling the live window to the front.
func (sv *server) grow() {
	n := 2 * len(sv.queue)
	if n == 0 {
		n = 8
	}
	//lint:allow hotalloc amortized ring growth: a server's queue reaches its high-water mark early in a run and is reused from then on
	q := make([]work, n)
	for i := 0; i < sv.n; i++ {
		q[i] = sv.queue[(sv.head+i)&(len(sv.queue)-1)]
	}
	sv.queue, sv.head = q, 0
}

// queueDelay reports how far behind the CPU is at now.
func (sv *server) queueDelay(now sim.Time) sim.Time {
	if d := sv.busyUntil - now; d > 0 {
		return d
	}
	return 0
}
