package sim

// This file is the kernel's future event list: two 4-ary implicit
// min-heaps ordered by (time, sequence). The event heap holds plain
// scheduled events, with lazy deletion of cancelled ones and a free
// list that recycles Event structs. The lane heap holds one slot per
// FIFO lane (lane.go) that has a live item, keyed by the lane head's
// reserved (time, sequence); a lane item fires and is released without
// ever entering the event heap. Both heaps share one sift-up and one
// sift-down over []slot.
//
// The heaps hold pointer-free slots — the key inline plus an id: the
// event's index in fel.evs, or the lane's index in Kernel.lanes. A sift
// moves slots level by level, and moving a pointer costs a GC write
// barrier whenever the collector is marking, which in this
// allocation-heavy workload is much of the time; comparing inline keys
// also skips a dereference per child.
//
// Why not container/heap: the interface-based heap routes every push
// and pop through heap.Interface method calls and `any` conversions on
// the hottest path of the whole reproduction (every figure re-runs the
// grid simulation hundreds of times inside the per-k tuner). The
// implicit 4-ary layout halves the tree depth of a binary heap, keeps
// the child scan inside one cache line, and compiles to direct slice
// indexing with no boxing.
//
// Fire-order invariance: (time, sequence) is a total order over events
// and lane items, so the pop sequence of any correct min-heap over the
// same set is identical regardless of internal array layout, and the
// smaller of the two roots under that order is the minimum one heap
// over both sets would hold. Splitting the heap, deleting lazily, and
// compacting are therefore all behaviour-invisible; the golden outputs
// and chaos fingerprints pin this.

// compactMin is the smallest number of lazily-deleted events that can
// trigger a compaction sweep; below it the dead weight is too small to
// be worth rebuilding the heap.
const compactMin = 64

// slot is one heap entry: a key inline plus the id of what it keys.
type slot struct {
	at  Time
	seq uint64
	id  int32
}

// before orders slots by (time, sequence) — the kernel's total order.
func (a slot) before(b slot) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// fel is the future event list.
type fel struct {
	ev  []slot   // the event heap
	evs []*Event // every Event the kernel ever allocated, by id
	// dead counts cancelled events still buried in the event heap.
	// Cancel marks and counts; pop and compact collect.
	dead int
	// lanes is the lane heap: one slot per lane holding a live item.
	lanes []slot
}

// live returns the number of pending non-cancelled events in the event
// heap.
func (f *fel) live() int { return len(f.ev) - f.dead }

// laneFirst reports whether the lane heap's root fires before the event
// heap's root. At least one heap must be non-empty.
func (f *fel) laneFirst() bool {
	return len(f.ev) == 0 || len(f.lanes) > 0 && f.lanes[0].before(f.ev[0])
}

// push inserts e into the event heap.
func (f *fel) push(e *Event) {
	e.inFEL = true
	f.ev = heapAdd(f.ev, slot{at: e.at, seq: e.seq, id: e.id})
}

// pop removes and returns the event heap's earliest event. The caller
// must know the heap is non-empty.
func (f *fel) pop() *Event {
	root := f.evs[f.ev[0].id]
	root.inFEL = false
	f.ev = heapPop(f.ev)
	return root
}

// heapAdd appends s to heap h and sifts it up to its place.
func heapAdd(h []slot, s slot) []slot {
	h = append(h, s)
	siftUp(h, s, len(h)-1)
	return h
}

// heapPop removes the root of heap h, refilling it with the last slot
// sifted down to its place.
func heapPop(h []slot) []slot {
	n := len(h) - 1
	if n > 0 {
		siftDown(h[:n], h[n], 0)
	}
	return h[:n]
}

// siftUp places s at index i of h, walking it up past later parents.
func siftUp(h []slot, s slot, i int) {
	for i > 0 {
		p := (i - 1) >> 2
		ps := h[p]
		if !s.before(ps) {
			break
		}
		h[i] = ps
		i = p
	}
	h[i] = s
}

// siftDown places s at index i of h, walking it down past earlier
// children.
func siftDown(h []slot, s slot, i int) {
	n := len(h)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m, ms := c, h[c]
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if h[j].before(ms) {
				m, ms = j, h[j]
			}
		}
		if !ms.before(s) {
			break
		}
		h[i] = ms
		i = m
	}
	h[i] = s
}

// compact removes every cancelled event in one sweep and re-heapifies
// in place (Floyd's O(n) build). The live events re-form a heap with a
// different internal layout, but the pop order is fixed by the
// (time, sequence) total order, so fire order is unchanged.
func (k *Kernel) compact() {
	f := &k.fel
	live := f.ev[:0]
	for _, s := range f.ev {
		if e := f.evs[s.id]; e.canceled {
			e.inFEL = false
			k.recycle(e)
			continue
		}
		live = append(live, s)
	}
	f.ev = live
	f.dead = 0
	for i := (len(live) - 2) >> 2; i >= 0; i-- {
		siftDown(live, live[i], i)
	}
}

// maybeCompact sweeps once the cancelled events outnumber the live
// ones, bounding both the heap's dead weight and the amortized cost of
// cancellation at O(1) per event.
func (k *Kernel) maybeCompact() {
	if d := k.fel.dead; d >= compactMin && d > len(k.fel.ev)/2 {
		k.compact()
	}
}

// recycle returns a retired Event struct to the free list. The closure
// is dropped immediately so the free list never pins model state.
func (k *Kernel) recycle(e *Event) {
	e.fn = nil
	k.free = append(k.free, e.id)
}

// newEvent takes a struct off the free list (or allocates the list's
// very first events) and initializes it under the next sequence number.
// In steady state — the regime every grid run reaches within one ticker
// period — Schedule performs zero heap allocations.
func (k *Kernel) newEvent(at Time, fn func()) *Event {
	seq := k.seq
	k.seq++
	if n := len(k.free); n > 0 {
		e := k.fel.evs[k.free[n-1]]
		k.free = k.free[:n-1]
		e.at = at
		e.seq = seq
		e.fn = fn
		e.canceled = false
		return e
	}
	//lint:allow hotalloc free-list cold start: each Event struct is allocated once here and recycled forever after
	e := &Event{at: at, seq: seq, fn: fn, id: int32(len(k.fel.evs))}
	k.fel.evs = append(k.fel.evs, e)
	return e
}
