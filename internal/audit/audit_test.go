package audit_test

import (
	"strings"
	"testing"

	"rmscale/internal/audit"
	"rmscale/internal/grid"
	"rmscale/internal/rms"
	"rmscale/internal/topology"
)

func testConfig() grid.Config {
	cfg := grid.DefaultConfig()
	cfg.Seed = 7
	cfg.Spec = topology.GridSpec{Clusters: 2, ClusterSize: 4, Estimators: 1}
	cfg.Horizon = 800
	cfg.Drain = 400
	cfg.Workload.Clusters = 2
	cfg.Workload.Horizon = 800
	cfg.Workload.ArrivalRate = 0.7 * 8 / 524.2
	return cfg
}

func newEngine(t *testing.T) *grid.Engine {
	t.Helper()
	e, err := grid.New(testConfig(), rms.NewLowest())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestCleanRunPassesAllChecks(t *testing.T) {
	e := newEngine(t)
	a, err := audit.Attach(e, audit.Config{Mode: audit.Record})
	if err != nil {
		t.Fatal(err)
	}
	sum := e.Run()
	if len(a.Violations()) != 0 {
		t.Fatalf("fault-free run violated invariants: %v", a.ViolationStrings())
	}
	if a.Checks() < 64 {
		t.Fatalf("only %d checkpoints ran, want >= 64 over the window", a.Checks())
	}
	if sum.AuditChecks != a.Checks() || sum.Violations != 0 || sum.FirstViolation != "" {
		t.Fatalf("summary audit fields wrong: checks=%d violations=%d first=%q",
			sum.AuditChecks, sum.Violations, sum.FirstViolation)
	}
	if a.Fingerprint() != "" {
		t.Fatalf("clean run has fingerprint %q, want empty", a.Fingerprint())
	}
	if a.Err() != nil {
		t.Fatalf("clean run reports error: %v", a.Err())
	}
}

func TestAuditingDoesNotPerturbTheRun(t *testing.T) {
	plain := newEngine(t).Run()
	e := newEngine(t)
	if _, err := audit.Attach(e, audit.Config{Mode: audit.Record}); err != nil {
		t.Fatal(err)
	}
	audited := e.Run()
	// Blank the audit-only fields; everything the model computed must be
	// identical, because audit checkpoints are pure reads.
	audited.AuditChecks = plain.AuditChecks
	if plain != audited {
		t.Fatalf("auditing perturbed the simulation:\nplain:   %+v\naudited: %+v", plain, audited)
	}
}

func TestOffModeAttachesNothing(t *testing.T) {
	e := newEngine(t)
	a, err := audit.Attach(e, audit.Config{Mode: audit.Off})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	if a.Checks() != 0 {
		t.Fatalf("Off auditor ran %d checkpoints", a.Checks())
	}
	if e.Metrics.AuditChecks != 0 {
		t.Fatalf("Off auditor published %d checks into metrics", e.Metrics.AuditChecks)
	}
}

func TestRecordModeDetectsCorruption(t *testing.T) {
	e := newEngine(t)
	e.K.Schedule(300, func() { e.Metrics.RMSOverhead = -1e6 })
	a, err := audit.Attach(e, audit.Config{Mode: audit.Record})
	if err != nil {
		t.Fatal(err)
	}
	sum := e.Run()
	if len(a.Violations()) == 0 {
		t.Fatal("negative G went undetected")
	}
	if got := a.Violations()[0].Check; got != audit.CheckAccounting {
		t.Fatalf("first violation check = %q, want %q", got, audit.CheckAccounting)
	}
	if sum.Violations != len(a.Violations()) || sum.FirstViolation != a.Violations()[0].String() {
		t.Fatalf("summary does not mirror the auditor: %d vs %d, %q vs %q",
			sum.Violations, len(a.Violations()), sum.FirstViolation, a.Violations()[0])
	}
	if !strings.Contains(sum.String(), "AUDIT") {
		t.Fatalf("summary string hides the violations: %s", sum)
	}
	// Record mode lets the run finish.
	if e.K.Now() < testConfig().Horizon {
		t.Fatalf("record mode stopped the run early at t=%v", e.K.Now())
	}
}

func TestAttachGuards(t *testing.T) {
	if _, err := audit.Attach(nil, audit.Config{Mode: audit.Record}); err == nil {
		t.Fatal("nil engine accepted")
	}
	e := newEngine(t)
	if _, err := audit.Attach(e, audit.Config{Mode: audit.Record}); err != nil {
		t.Fatal(err)
	}
	if _, err := audit.Attach(e, audit.Config{Mode: audit.Record}); err == nil {
		t.Fatal("double attach accepted")
	}
	e.Run()
	e2 := newEngine(t)
	e2.Run()
	if _, err := audit.Attach(e2, audit.Config{Mode: audit.Record}); err == nil {
		t.Fatal("attach after the run accepted")
	}
}

func TestFingerprintIsStable(t *testing.T) {
	vs := []string{"t=1.0 accounting: G is negative: -1", "t=2.0 drain: negative unfinished count -1"}
	a, b := audit.Fingerprint(vs), audit.Fingerprint(append([]string(nil), vs...))
	if a == "" || a != b {
		t.Fatalf("fingerprint unstable: %q vs %q", a, b)
	}
	if audit.Fingerprint(nil) != "" {
		t.Fatal("empty violation list must fingerprint to empty")
	}
	if audit.Fingerprint(vs[:1]) == a {
		t.Fatal("different violation lists share a fingerprint")
	}
}
