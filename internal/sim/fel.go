package sim

// This file is the kernel's future event list: a 4-ary implicit
// min-heap ordered by (time, sequence), with lazy deletion of cancelled
// events and a free list that recycles Event structs.
//
// The heap holds pointer-free slots — the key inline plus the event's
// id in fel.evs — not *Event. A sift moves slots level by level, and
// moving a pointer costs a GC write barrier whenever the collector is
// marking, which in this allocation-heavy workload is much of the
// time; comparing inline keys also skips a dereference per child.
//
// Why not container/heap: the interface-based heap routes every push
// and pop through heap.Interface method calls and `any` conversions on
// the hottest path of the whole reproduction (every figure re-runs the
// grid simulation hundreds of times inside the per-k tuner). The
// implicit 4-ary layout halves the tree depth of a binary heap, keeps
// the child scan inside one cache line, and compiles to direct slice
// indexing with no boxing.
//
// Fire-order invariance: (time, sequence) is a total order over events,
// so the pop sequence of any correct min-heap over the same event set
// is identical regardless of internal array layout. Replacing the
// binary heap, deleting lazily, and compacting are therefore all
// behaviour-invisible; the golden outputs and chaos fingerprints pin
// this.

// compactMin is the smallest number of lazily-deleted events that can
// trigger a compaction sweep; below it the dead weight is too small to
// be worth rebuilding the heap.
const compactMin = 64

// slot is one heap entry: the event's key inline plus its id.
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
	ev  []slot
	evs []*Event // every Event the kernel ever allocated, by id
	// dead counts cancelled events still buried in the heap. Cancel
	// marks and counts; pop and compact collect.
	dead int
}

// live returns the number of pending non-cancelled events.
func (f *fel) live() int { return len(f.ev) - f.dead }

// top returns the earliest event without removing it.
func (f *fel) top() *Event { return f.evs[f.ev[0].id] }

// push inserts e, sifting it up to its (time, sequence) position.
func (f *fel) push(e *Event) {
	e.inFEL = true
	s := slot{at: e.at, seq: e.seq, id: e.id}
	i := len(f.ev)
	f.ev = append(f.ev, s)
	for i > 0 {
		p := (i - 1) >> 2
		ps := f.ev[p]
		if !s.before(ps) {
			break
		}
		f.ev[i] = ps
		i = p
	}
	f.ev[i] = s
}

// pop removes and returns the earliest event. The caller must know the
// list is non-empty.
func (f *fel) pop() *Event {
	root := f.evs[f.ev[0].id]
	root.inFEL = false
	n := len(f.ev) - 1
	last := f.ev[n]
	f.ev = f.ev[:n]
	if n > 0 {
		f.siftDown(last, 0)
	}
	return root
}

// siftDown places s at index i, walking it down past smaller children.
func (f *fel) siftDown(s slot, i int) {
	n := len(f.ev)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m, ms := c, f.ev[c]
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if f.ev[j].before(ms) {
				m, ms = j, f.ev[j]
			}
		}
		if !ms.before(s) {
			break
		}
		f.ev[i] = ms
		i = m
	}
	f.ev[i] = s
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
		f.siftDown(f.ev[i], i)
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
// very first events) and initializes it. In steady state — the regime
// every grid run reaches within one ticker period — Schedule performs
// zero heap allocations.
func (k *Kernel) newEvent(at Time, fn func()) *Event {
	e := k.eventAt(at, k.seq, fn)
	k.seq++
	return e
}

// eventAt initializes a free-list Event under an explicit sequence
// number: newEvent passes the next one, a lane (lane.go) the one its
// head item reserved at append time.
func (k *Kernel) eventAt(at Time, seq uint64, fn func()) *Event {
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
