package grid

import (
	"fmt"
	"testing"

	"rmscale/internal/sim"
)

func TestEngineTracing(t *testing.T) {
	e, err := New(testConfig(), &stubPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	e.Tracer = sim.NewTracer(e.K, 0)
	e.Run()
	if e.Tracer.Count("arrival") != e.Metrics.JobsArrived {
		t.Fatalf("traced %d arrivals for %d jobs",
			e.Tracer.Count("arrival"), e.Metrics.JobsArrived)
	}
	if e.Tracer.Count("dispatch") < e.Metrics.JobsArrived {
		t.Fatalf("traced %d dispatches for %d jobs",
			e.Tracer.Count("dispatch"), e.Metrics.JobsArrived)
	}
	if e.Tracer.Count("update") != e.Metrics.UpdatesSent {
		t.Fatalf("traced %d updates, metrics say %d",
			e.Tracer.Count("update"), e.Metrics.UpdatesSent)
	}
}

func TestEngineWithoutTracerIsSilent(t *testing.T) {
	e, err := New(testConfig(), &stubPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	// Nil tracer must be safe end to end.
	e.Run()
	if e.Tracer.Count("arrival") != 0 {
		t.Fatal("nil tracer recorded events")
	}
}

// forwardPolicy hands every fresh job to the next cluster and dispatches
// it there: the smallest policy that moves jobs between clusters.
type forwardPolicy struct{ stubPolicy }

func (p *forwardPolicy) OnJob(s *Scheduler, ctx *JobCtx) {
	if ctx.Hops == 0 {
		s.TransferJob(ctx, (s.Cluster()+1)%s.Engine().Clusters())
		return
	}
	s.DispatchLeastLoaded(ctx)
}

// TestCrossClusterTagging checks that the trace tags every job transfer
// between clusters, once, with its source and destination, and that a
// policy which keeps jobs local tags none.
func TestCrossClusterTagging(t *testing.T) {
	e, err := New(testConfig(), &stubPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	e.Tracer = sim.NewTracer(e.K, 0)
	e.Run()
	if n := e.Tracer.Count("transfer"); n != 0 || e.Metrics.JobTransfers != 0 {
		t.Fatalf("local-only policy: %d transfers traced, %d counted; want none", n, e.Metrics.JobTransfers)
	}

	e, err = New(testConfig(), &forwardPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	e.Tracer = sim.NewTracer(e.K, 0)
	e.Run()
	if e.Metrics.JobTransfers == 0 {
		t.Fatalf("forwarding policy moved no jobs")
	}
	if n := e.Tracer.Count("transfer"); n != e.Metrics.JobTransfers {
		t.Fatalf("traced %d transfers, metrics say %d", n, e.Metrics.JobTransfers)
	}
	for _, ev := range e.Tracer.Events() {
		if ev.Kind != "transfer" {
			continue
		}
		var job, from, to int
		if _, err := fmt.Sscanf(ev.Detail, "job %d: cluster %d -> %d", &job, &from, &to); err != nil {
			t.Fatalf("transfer tag %q: %v", ev.Detail, err)
		}
		if to != (from+1)%e.Clusters() {
			t.Fatalf("transfer tag %q: want destination %d", ev.Detail, (from+1)%e.Clusters())
		}
	}
}
