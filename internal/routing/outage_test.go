package routing

import (
	"testing"

	"rmscale/internal/sim"
)

// windowCount is the total number of planned outage windows.
func windowCount(o *Outages) int {
	n := 0
	for _, ws := range o.windows {
		n += len(ws)
	}
	return n
}

func TestPlanOutagesDeterministic(t *testing.T) {
	nodes := []int{5, 1, 9, 1, 3}
	a, err := PlanOutages(nodes, 100, 20, 1000, sim.NewSource(7).Stream("faults:links"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlanOutages([]int{1, 1, 3, 5, 9}, 100, 20, 1000, sim.NewSource(7).Stream("faults:links"))
	if err != nil {
		t.Fatal(err)
	}
	if windowCount(a) == 0 {
		t.Fatal("expected some outage windows with mtbf 100 over horizon 1000")
	}
	if windowCount(a) != windowCount(b) {
		t.Fatalf("window counts differ: %d vs %d", windowCount(a), windowCount(b))
	}
	for _, n := range nodes {
		for x := 0.0; x < 1000; x += 7.3 {
			if a.Severed(n, x) != b.Severed(n, x) {
				t.Fatalf("schedules diverge at node %d, t=%v", n, x)
			}
		}
	}
}

func TestOutagesSeveredWindows(t *testing.T) {
	o, err := PlanOutages([]int{1}, 50, 10, 500, sim.NewSource(3).Stream("links"))
	if err != nil {
		t.Fatal(err)
	}
	ws := o.windows[1]
	if len(ws) == 0 {
		t.Fatal("no windows planned")
	}
	w := ws[0]
	if !o.Severed(1, w.start) || !o.Severed(1, (w.start+w.end)/2) {
		t.Fatal("inside the window must read severed")
	}
	if o.Severed(1, w.end) {
		t.Fatal("window end is exclusive")
	}
	if w.start > 0 && o.Severed(1, w.start/2) {
		t.Fatal("before the first window must read up")
	}
	if o.Severed(2, w.start) {
		t.Fatal("unknown node must never be severed")
	}
	if !o.SeveredPath(1, 2, w.start) || !o.SeveredPath(2, 1, w.start) {
		t.Fatal("a path touching a severed endpoint must be severed")
	}
}

func TestPlanOutagesDisabled(t *testing.T) {
	o, err := PlanOutages([]int{1, 2}, 0, 10, 500, nil)
	if err != nil {
		t.Fatal(err)
	}
	if windowCount(o) != 0 || o.Severed(1, 5) {
		t.Fatal("disabled plan must be empty")
	}
	var nilPlan *Outages
	if nilPlan.Severed(1, 0) || nilPlan.SeveredPath(1, 2, 0) {
		t.Fatal("nil plan must read fault-free")
	}
	if _, err := PlanOutages([]int{1}, 10, 10, 500, nil); err == nil {
		t.Fatal("enabled plan without a source must error")
	}
}
