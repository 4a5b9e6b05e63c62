package grid

import (
	"testing"
)

// chattyPolicy forwards every job's arrival as a protocol message to
// the next cluster, so loss windows have traffic to act on.
type chattyPolicy struct{ stubPolicy }

func (p *chattyPolicy) Name() string { return "CHATTY" }

func (p *chattyPolicy) OnJob(s *Scheduler, ctx *JobCtx) {
	s.SendPolicy((s.Cluster()+1)%4, 1, nil)
	s.DispatchLeastLoaded(ctx)
}

func TestScriptedSchedulerCrash(t *testing.T) {
	e, err := New(testConfig(), &stubPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ArmFaults(); err != nil {
		t.Fatal(err)
	}
	if err := e.InjectSchedulerCrash(1, 100, 200); err != nil {
		t.Fatal(err)
	}
	if !e.HasFaultScript() {
		t.Fatal("injection did not mark the engine as scripted")
	}
	var downAt150, upAt400 bool
	e.K.Schedule(150, func() { downAt150 = e.Schedulers[1].down })
	e.K.Schedule(400, func() { upAt400 = !e.Schedulers[1].down })
	e.Run()
	if !downAt150 {
		t.Fatal("scheduler 1 not down inside its scripted outage")
	}
	if !upAt400 {
		t.Fatal("scheduler 1 not repaired after its scripted outage")
	}
	if e.Metrics.SchedulerCrashes != 1 {
		t.Fatalf("SchedulerCrashes = %d, want 1", e.Metrics.SchedulerCrashes)
	}
	if e.Metrics.SchedulerDowntime != 200 {
		t.Fatalf("SchedulerDowntime = %v, want 200", e.Metrics.SchedulerDowntime)
	}
}

func TestScriptedLossWindow(t *testing.T) {
	cfg := testConfig()
	cfg.Faults.RetryTimeout = 25
	cfg.Faults.MaxRetries = 3
	e, err := New(cfg, &chattyPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ArmFaults(); err != nil {
		t.Fatal(err)
	}
	if err := e.InjectLossWindow(0, cfg.Horizon+cfg.Drain-1); err != nil {
		t.Fatal(err)
	}
	e.Run()
	// Every protocol send inside the window is lost; each loss must be
	// either retried or abandoned, never silently dropped.
	if e.Metrics.MsgsLost == 0 {
		t.Fatal("full-length loss window lost no messages")
	}
	if e.Metrics.MsgsLost != e.Metrics.MsgRetries+e.Metrics.MsgsAbandoned {
		t.Fatalf("lost %d != retries %d + abandoned %d",
			e.Metrics.MsgsLost, e.Metrics.MsgRetries, e.Metrics.MsgsAbandoned)
	}
}

func TestScriptValidation(t *testing.T) {
	e, err := New(testConfig(), &stubPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.InjectSchedulerCrash(0, 10, 10); err == nil {
		t.Fatal("injection before ArmFaults accepted")
	}
	if err := e.ArmFaults(); err != nil {
		t.Fatal(err)
	}
	if err := e.ArmFaults(); err != nil {
		t.Fatalf("ArmFaults is documented idempotent, got %v", err)
	}
	if err := e.InjectSchedulerCrash(99, 10, 10); err == nil {
		t.Fatal("out-of-range cluster accepted")
	}
	if err := e.InjectSchedulerCrash(0, -5, 10); err == nil {
		t.Fatal("negative crash time accepted")
	}
	if err := e.InjectSchedulerCrash(0, 10, 0); err == nil {
		t.Fatal("zero repair time accepted")
	}
	if err := e.InjectEstimatorCrash(0, 10, 10); err == nil {
		t.Fatal("estimator crash accepted on a grid with no estimators")
	}
	if err := e.InjectLossWindow(10, -1); err == nil {
		t.Fatal("negative loss duration accepted")
	}
	e.Run()
	if err := e.InjectSchedulerCrash(0, 10, 10); err == nil {
		t.Fatal("injection after the run started accepted")
	}
}

func TestScriptedRunsStayDeterministic(t *testing.T) {
	run := func() Summary {
		e, err := New(testConfig(), &stubPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.ArmFaults(); err != nil {
			t.Fatal(err)
		}
		if err := e.InjectSchedulerCrash(2, 300, 150); err != nil {
			t.Fatal(err)
		}
		if err := e.InjectLossWindow(500, 80); err != nil {
			t.Fatal(err)
		}
		return e.Run()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("identical scripted runs diverged:\n%v\n%v", a, b)
	}
}
