package sim

import "testing"

func TestTracerRecords(t *testing.T) {
	k := NewKernel()
	tr := NewTracer(k, 0)
	k.Schedule(5, func() { tr.Trace("dispatch", "job 1") })
	k.Schedule(9, func() { tr.Tracef("complete", "job %d", 1) })
	k.Run(100)
	ev := tr.Events()
	if len(ev) != 2 {
		t.Fatalf("events = %d", len(ev))
	}
	if ev[0].At != 5 || ev[0].Kind != "dispatch" || ev[0].Detail != "job 1" {
		t.Fatalf("event 0 = %+v", ev[0])
	}
	if ev[1].Detail != "job 1" || ev[1].Kind != "complete" {
		t.Fatalf("event 1 = %+v", ev[1])
	}
	if tr.Count("dispatch") != 1 || tr.Count("missing") != 0 {
		t.Fatal("counts wrong")
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Trace("x", "y") // must not panic
	tr.Tracef("x", "%d", 1)
	if tr.Count("x") != 0 || tr.Events() != nil {
		t.Fatal("nil tracer not inert")
	}
}

func TestTracerLimit(t *testing.T) {
	k := NewKernel()
	tr := NewTracer(k, 10)
	for i := 0; i < 100; i++ {
		tr.Trace("tick", "")
	}
	if got := len(tr.Events()); got > 10 {
		t.Fatalf("retained %d events over limit 10", got)
	}
	if tr.Count("tick") != 100 {
		t.Fatalf("count = %d, want 100 (counts survive eviction)", tr.Count("tick"))
	}
}
