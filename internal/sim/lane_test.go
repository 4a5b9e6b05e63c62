package sim

import (
	"reflect"
	"strings"
	"testing"
)

// TestLaneInterleavesWithHeap: lane items fire in (time, seq) order
// with plain events, each under the sequence number it took at append
// time; the events fill the event heap and only the lane's head has a
// slot, in the lane heap.
func TestLaneInterleavesWithHeap(t *testing.T) {
	k := NewKernel()
	l := NewLane(k)
	var got []string
	note := func(s string) func() { return func() { got = append(got, s) } }
	l.Append(2, note("lane@2 first"))
	k.Schedule(2, note("heap@2"))
	l.Append(2, note("lane@2 second"))
	k.Schedule(1, note("heap@1"))
	l.Append(5, note("lane@5"))
	if n, m := len(k.fel.ev), len(k.fel.lanes); n != 2 || m != 1 {
		t.Fatalf("event heap holds %d slots and lane heap %d, want 2 plain events and 1 lane head", n, m)
	}
	if n := pending(k); n != 5 {
		t.Fatalf("pending = %d, want 5", n)
	}
	k.Run(10)
	want := []string{"heap@1", "lane@2 first", "heap@2", "lane@2 second", "lane@5"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fire order %v, want %v", got, want)
	}
	if k.Processed() != 5 || pending(k) != 0 {
		t.Fatalf("processed %d pending %d, want 5 and 0", k.Processed(), pending(k))
	}
}

// TestLaneAppendDecreasingPanics: an append behind the lane's newest
// item would break the sortedness the lane relies on, and an append in
// the past is the same model bug as Schedule in the past. Neither may
// leave a trace.
func TestLaneAppendDecreasingPanics(t *testing.T) {
	k := NewKernel()
	l := NewLane(k)
	l.Append(5, func() {})
	seq := k.seq
	for _, at := range []Time{4.999, 0} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("append at %v behind 5 did not panic", at)
				}
				if msg, _ := r.(string); !strings.Contains(msg, "lane append") {
					t.Fatalf("unexpected panic %v", r)
				}
			}()
			l.Append(at, func() {})
		}()
	}
	k.Run(6)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("append in the past of an empty lane did not panic")
			}
		}()
		l.Append(5.5, func() {})
	}()
	if k.seq != seq || pending(k) != 0 || k.Processed() != 1 {
		t.Fatalf("rejected appends left a trace: seq %d (want %d), pending %d, processed %d",
			k.seq, seq, pending(k), k.Processed())
	}
}

// TestLaneRingGrowthKeepsOrder: appends far beyond the initial ring,
// interleaved with firing so the live window wraps, keep FIFO order.
func TestLaneRingGrowthKeepsOrder(t *testing.T) {
	k := NewKernel()
	l := NewLane(k)
	var got []int
	next := 0
	push := func(n int) {
		for i := 0; i < n; i++ {
			id := next
			next++
			l.Append(Time(id/3), func() { got = append(got, id) })
		}
	}
	push(10)
	k.Run(1.5) // fires ids 0..5, leaving the window mid-ring
	push(100)
	k.Run(Infinity)
	for i, id := range got {
		if id != i {
			t.Fatalf("fire %d was item %d: FIFO order broken", i, id)
		}
	}
	if len(got) != next {
		t.Fatalf("fired %d of %d items", len(got), next)
	}
}

// TestLaneGrowPresizes: Grow(n) on a lane whose live window wraps the
// ring makes room for the next n appends in one resize — the ring
// does not grow again while they land — and keeps FIFO order.
func TestLaneGrowPresizes(t *testing.T) {
	k := NewKernel()
	l := NewLane(k)
	var got []int
	next := 0
	push := func(n int) {
		for i := 0; i < n; i++ {
			id := next
			next++
			l.Append(Time(id/3), func() { got = append(got, id) })
		}
	}
	push(10)
	k.Run(1.5) // fires ids 0..5, leaving the window mid-ring
	l.Grow(150)
	size := len(l.buf)
	if size < 154 {
		t.Fatalf("Grow(150) with 4 live items left a ring of %d", size)
	}
	push(150)
	l.Grow(0)
	l.Grow(-1)
	if len(l.buf) != size {
		t.Fatalf("ring grew from %d to %d after Grow made room", size, len(l.buf))
	}
	k.Run(Infinity)
	if len(got) != next {
		t.Fatalf("fired %d of %d items", len(got), next)
	}
	for i, id := range got {
		if id != i {
			t.Fatalf("fire %d was item %d: FIFO order broken", i, id)
		}
	}
}
