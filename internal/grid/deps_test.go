package grid

import (
	"testing"

	"rmscale/internal/sim"
	"rmscale/internal/workload"
)

// depJobs builds a small chained workload: 0 <- 1 <- 2 and independent 3.
func depJobs() []*workload.Job {
	mk := func(id int, arrival float64, deps ...int) *workload.Job {
		return &workload.Job{
			ID: id, Arrival: arrival, Runtime: 50, Requested: 60,
			Benefit: 5, Partition: 1, Cluster: 0, Class: workload.Local, Deps: deps,
		}
	}
	return []*workload.Job{
		mk(0, 0),
		mk(1, 1, 0),
		mk(2, 2, 1),
		mk(3, 3),
	}
}

// admitTimes records the simulated time at which the engine hands each
// job to the policy, by job ID.
type admitTimes struct {
	stubPolicy
	at map[int]sim.Time
}

func (p *admitTimes) OnJob(s *Scheduler, ctx *JobCtx) {
	p.at[ctx.Job.ID] = s.Engine().K.Now()
	p.stubPolicy.OnJob(s, ctx)
}

func TestPrecedenceHoldsDependents(t *testing.T) {
	p := &admitTimes{at: map[int]sim.Time{}}
	e, err := New(testConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.UseJobs(depJobs()); err != nil {
		t.Fatal(err)
	}
	sum := e.Run()
	if e.Metrics.JobsCompleted != 4 {
		t.Fatalf("completed %d of 4", e.Metrics.JobsCompleted)
	}
	if e.HeldJobs() != 0 {
		t.Fatalf("%d jobs still held after drain", e.HeldJobs())
	}
	if p.onJob != 4 || len(p.at) != 4 {
		t.Fatalf("admissions = %d of %d jobs", p.onJob, len(p.at))
	}
	// Admission order must respect the chain: the engine admits 1 only
	// after 0 completes (t>=50), 2 only after 1 (t>=100).
	t1, t2 := p.at[1], p.at[2]
	if t1 < 50 {
		t.Fatalf("job 1 admitted at %v, before its parent finished (50)", t1)
	}
	if t2 < t1+50 {
		t.Fatalf("job 2 admitted at %v, before job 1 finished (%v)", t2, t1+50)
	}
	if sum.Jobs != 4 {
		t.Fatalf("jobs = %d", sum.Jobs)
	}
}

func TestPrecedenceWithDAGWorkload(t *testing.T) {
	cfg := testConfig()
	e, err := New(cfg, &stubPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	p := workload.DefaultParams()
	// Run lighter than the stressed default so dependency chains can
	// drain inside the window.
	p.ArrivalRate = cfg.Workload.ArrivalRate * 0.7
	p.Horizon = cfg.Workload.Horizon
	p.Clusters = cfg.Workload.Clusters
	jobs, err := workload.Generate(p, sim.NewSource(5).Stream("dag"))
	if err != nil {
		t.Fatal(err)
	}
	// Make the stream a DAG in groups of five: the second job of each
	// group waits for the first, the third for both.
	for i := 0; i+2 < len(jobs); i += 5 {
		jobs[i+1].Deps = []int{jobs[i].ID}
		jobs[i+2].Deps = []int{jobs[i].ID, jobs[i+1].ID}
	}
	if err := e.UseJobs(jobs); err != nil {
		t.Fatal(err)
	}
	e.Run()
	m := e.Metrics
	if m.JobsCompleted+m.JobsLost+e.Unfinished() != m.JobsArrived {
		t.Fatalf("conservation broken with precedence: %d+%d+%d != %d",
			m.JobsCompleted, m.JobsLost, e.Unfinished(), m.JobsArrived)
	}
	if m.JobsCompleted == 0 {
		t.Fatal("nothing completed")
	}
	// Chains whose parents are still running at the cutoff legitimately
	// stay held, but they must be a small tail, and every held job must
	// be accounted as unfinished.
	if e.HeldJobs() > e.Unfinished() {
		t.Fatalf("held (%d) exceeds unfinished (%d)", e.HeldJobs(), e.Unfinished())
	}
	if frac := float64(m.JobsCompleted) / float64(m.JobsArrived); frac < 0.9 {
		t.Fatalf("only %.2f of the DAG workload completed", frac)
	}
}

func TestPrecedenceReleasedOnLoss(t *testing.T) {
	e, err := New(testConfig(), &stubPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	jobs := depJobs()
	if err := e.UseJobs(jobs); err != nil {
		t.Fatal(err)
	}
	// Simulate job 0 being dropped before running: its dependent must
	// still be released.
	e.Metrics.JobsArrived = len(jobs)
	e.startArrivals()
	e.dropJob(&JobCtx{Job: jobs[0]})
	e.K.Run(5000)
	if e.HeldJobs() != 0 {
		t.Fatalf("dependents not released after parent loss: %d held", e.HeldJobs())
	}
}

func TestDepTrackerUnit(t *testing.T) {
	d := newDepTracker()
	j1 := &workload.Job{ID: 1, Deps: []int{0}}
	j2 := &workload.Job{ID: 2, Deps: []int{0, 1}}
	if !d.register(j1) || !d.register(j2) {
		t.Fatal("jobs with live parents must be held")
	}
	if d.Held() != 2 {
		t.Fatalf("held = %d", d.Held())
	}
	rel := d.terminate(0)
	if len(rel) != 1 || rel[0].ID != 1 {
		t.Fatalf("terminate(0) released %v", rel)
	}
	rel = d.terminate(1)
	if len(rel) != 1 || rel[0].ID != 2 {
		t.Fatalf("terminate(1) released %v", rel)
	}
	if d.Held() != 0 {
		t.Fatal("tracker not drained")
	}
	// Terminating twice is harmless.
	if d.terminate(0) != nil {
		t.Fatal("double terminate released jobs")
	}
	// A job whose parents already finished is not held.
	j3 := &workload.Job{ID: 3, Deps: []int{0, 1}}
	if d.register(j3) {
		t.Fatal("job with finished parents was held")
	}
}
