package sim

import "fmt"

// This file is the kernel's FIFO lane: a queue of callbacks whose
// firing order is already known when they are scheduled, kept out of
// the event heap altogether.
//
// Order equivalence: Append takes the kernel's next sequence number at
// the moment a plain Schedule would have, and appends must not go back
// in time, so a lane is sorted by the same (time, sequence) key the FEL
// orders by. A lane with a live item has one slot in the lane heap
// (fel.go), keyed by its head item; every other item is at or after
// it. The lane heap's root is therefore the earliest lane item, and the
// smaller of the two heap roots is always the minimum one heap would
// hold had every item been scheduled directly: fire order, sequence
// numbers and Processed() are identical.
//
// Release in place: when a lane item fires, its lane's slot is the lane
// heap's root. The slot is re-keyed to the next item and sifted down
// once, or removed when the lane runs empty — no push and no pop in
// the event heap. What lanes buy is a small event heap
// (thousands of pre-scheduled arrivals, every ticker's pending tick and
// every queued server work item collapse to one slot per lane, in a
// heap of a few dozen) and no per-item heap slot or closure: a lane
// item is three words in a reused ring buffer. A lane item has no
// handle and is never cancelled, so every item between head and tail
// is live.

// laneItem is one callback waiting in a lane under its reserved
// (time, sequence) key. Release clears fn, so the ring never pins a
// fired callback.
type laneItem struct {
	at  Time
	seq uint64
	fn  func()
}

// Lane is a FIFO of callbacks appended in non-decreasing time order.
// Create one with NewLane; a Lane belongs to one kernel.
//
// Invariant: the lane has a slot in the lane heap exactly when
// head != tail, keyed by the item at head.
type Lane struct {
	k *Kernel
	// buf is a ring buffer whose length is a power of two; head and
	// tail are absolute append positions, masked into the ring.
	buf        []laneItem
	head, tail uint64
	last       Time  // time of the newest append
	idx        int32 // index in k.lanes: the id of the lane's heap slot
}

// NewLane returns an empty lane on k. The lane heap's capacity grows
// here, so a slot push while running never allocates.
func NewLane(k *Kernel) *Lane {
	l := &Lane{k: k, idx: int32(len(k.lanes))}
	k.lanes = append(k.lanes, l)
	if f := &k.fel; cap(f.lanes) < len(k.lanes) {
		f.lanes = append(make([]slot, 0, 2*len(k.lanes)), f.lanes...)
	}
	return l
}

// Append arranges for fn to run at absolute time at, exactly as
// k.Schedule(at, fn) would. Appending a time earlier than the lane's
// newest item, in the past, or NaN panics — it would break the order
// the lane exists to exploit.
//
//lint:hotpath every ticker rearm, job arrival and queued server work item enters the kernel here; TestKernelLanesZeroAlloc and TestTickerRearmZeroAlloc pin it allocation-free once the ring is warm
func (l *Lane) Append(at Time, fn func()) {
	k := l.k
	if !(at >= l.last && at >= k.now) {
		//lint:allow hotalloc panic path: fires once on a model bug, never in a measured run
		panic(fmt.Sprintf("sim: lane append at %v before %v (newest %v)", at, k.now, l.last))
	}
	if fn == nil {
		//lint:allow hotalloc panic path: fires once on a model bug, never in a measured run
		panic("sim: lane append nil func")
	}
	if l.tail-l.head == uint64(len(l.buf)) {
		l.grow()
	}
	l.buf[l.tail&uint64(len(l.buf)-1)] = laneItem{at: at, seq: k.seq, fn: fn}
	if l.tail == l.head {
		k.fel.lanes = heapAdd(k.fel.lanes, slot{at: at, seq: k.seq, id: l.idx})
	}
	l.tail++
	l.last = at
	k.seq++
}

// release retires the head item, whose slot is the lane heap's root,
// and returns its callback for the dispatch loop to run. The slot moves
// on before the callback runs, so a callback that appends to its own
// lane finds it consistent: it is re-keyed to the new head and sifted
// down — a lane's keys only grow — or removed when the lane runs empty.
//
//lint:hotpath the lane release path; every lane item fires through it
func (l *Lane) release() func() {
	k := l.k
	mask := uint64(len(l.buf) - 1)
	it := &l.buf[l.head&mask]
	fn := it.fn
	it.fn = nil
	l.head++
	if l.head == l.tail {
		k.fel.lanes = heapPop(k.fel.lanes)
		return fn
	}
	it = &l.buf[l.head&mask]
	siftDown(k.fel.lanes, slot{at: it.at, seq: it.seq, id: l.idx}, 0)
	return fn
}

// Grow makes room for n more items, so the next n appends never grow
// the ring. A caller that knows how many items it is about to append
// sizes the ring once instead of doubling it up to that size.
func (l *Lane) Grow(n int) {
	if n <= 0 {
		return
	}
	need := l.tail - l.head + uint64(n)
	if need <= uint64(len(l.buf)) {
		return
	}
	size := max(len(l.buf), 16)
	for uint64(size) < need {
		size *= 2
	}
	l.resize(size)
}

// grow doubles the ring.
func (l *Lane) grow() { l.resize(max(2*len(l.buf), 16)) }

// resize moves the live window into a ring of n slots, a power of two
// at least as long as the window, re-placing it under the new mask.
func (l *Lane) resize(n int) {
	//lint:allow hotalloc amortized ring growth: a lane reaches its high-water mark early in a run and reuses the ring from then on
	buf := make([]laneItem, n)
	oldMask, newMask := uint64(len(l.buf)-1), uint64(n-1)
	for p := l.head; p != l.tail; p++ {
		buf[p&newMask] = l.buf[p&oldMask]
	}
	l.buf = buf
}
