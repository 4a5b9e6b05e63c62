package sim

// This file is the kernel's future event list: two 4-ary implicit
// min-heaps ordered by (time, sequence). The event heap holds plain
// scheduled events; each one's callback waits in fel.fns under the id
// of its slot, and a fired id returns to a free list for the next
// Schedule. The lane heap holds one slot per FIFO lane (lane.go) that
// has a pending item, keyed by the lane head's reserved
// (time, sequence); a lane item fires and is released without ever
// entering the event heap. Both heaps share one sift-up and one
// sift-down over []slot.
//
// The heaps hold pointer-free slots — the key inline plus an id: the
// index of the event's callback in fel.fns, or the lane's index in
// Kernel.lanes. A sift moves slots level by level, and moving a pointer
// costs a GC write barrier whenever the collector is marking, which in
// this allocation-heavy workload is much of the time; comparing inline
// keys also skips a dereference per child. No event can be withdrawn,
// so every slot in either heap is live.
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
// over both sets would hold. Splitting the heap is therefore
// behaviour-invisible; the golden outputs and chaos fingerprints pin
// this.

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
	ev   []slot   // the event heap
	fns  []func() // each pending event's callback, by its slot id
	free []int32  // ids of fns whose event fired
	// lanes is the lane heap: one slot per lane holding a pending item.
	lanes []slot
}

// laneFirst reports whether the lane heap's root fires before the event
// heap's root. At least one heap must be non-empty.
func (f *fel) laneFirst() bool {
	return len(f.ev) == 0 || len(f.lanes) > 0 && f.lanes[0].before(f.ev[0])
}

// push inserts fn into the event heap under s's key, taking an id off
// the free list. Only the first events of a run grow fns; once the
// list is warm a push allocates nothing.
func (f *fel) push(s slot, fn func()) {
	if n := len(f.free); n > 0 {
		s.id = f.free[n-1]
		f.free = f.free[:n-1]
		f.fns[s.id] = fn
	} else {
		s.id = int32(len(f.fns))
		f.fns = append(f.fns, fn)
	}
	f.ev = heapAdd(f.ev, s)
}

// pop removes the event heap's root and returns its callback. The id
// is free again before the callback runs, and its closure is dropped so
// the table never pins model state. The caller must know the heap is
// non-empty.
func (f *fel) pop() func() {
	id := f.ev[0].id
	fn := f.fns[id]
	f.fns[id] = nil
	f.free = append(f.free, id)
	f.ev = heapPop(f.ev)
	return fn
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
