package grid

import "testing"

// TestEngineTracing checks that the policy sees every arrival: the
// engine hands each admitted job to OnJob once, and stubPolicy
// dispatches every job it sees, so one count covers both hops.
func TestEngineTracing(t *testing.T) {
	p := &stubPolicy{}
	e, err := New(testConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	if e.Metrics.JobsArrived == 0 {
		t.Fatal("no jobs arrived")
	}
	if p.onJob != e.Metrics.JobsArrived || p.onJob != e.Metrics.JobsAdmitted {
		t.Fatalf("policy saw %d jobs; %d arrived, %d admitted",
			p.onJob, e.Metrics.JobsArrived, e.Metrics.JobsAdmitted)
	}
}

// forwardPolicy hands every fresh job to the next cluster and dispatches
// it there: the smallest policy that moves jobs between clusters. It
// records each transferred job's (origin, receiving cluster).
type forwardPolicy struct {
	stubPolicy
	landed [][2]int
}

func (p *forwardPolicy) OnJob(s *Scheduler, ctx *JobCtx) {
	if ctx.Hops == 0 {
		s.TransferJob(ctx, (s.Cluster()+1)%s.Engine().Clusters())
		return
	}
	p.landed = append(p.landed, [2]int{ctx.Origin, s.Cluster()})
	s.DispatchLeastLoaded(ctx)
}

// TestCrossClusterTagging checks that every job transfer between
// clusters lands once, at its destination, and that a policy which
// keeps jobs local transfers none.
func TestCrossClusterTagging(t *testing.T) {
	e, err := New(testConfig(), &stubPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	if e.Metrics.JobTransfers != 0 {
		t.Fatalf("local-only policy: %d transfers counted; want none", e.Metrics.JobTransfers)
	}

	p := &forwardPolicy{}
	e, err = New(testConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	if e.Metrics.JobTransfers == 0 {
		t.Fatalf("forwarding policy moved no jobs")
	}
	if n := len(p.landed); n != e.Metrics.JobTransfers {
		t.Fatalf("%d transfers landed, metrics say %d", n, e.Metrics.JobTransfers)
	}
	for _, l := range p.landed {
		if from, to := l[0], l[1]; to != (from+1)%e.Clusters() {
			t.Fatalf("job from cluster %d landed at %d; want %d", from, to, (from+1)%e.Clusters())
		}
	}
}
