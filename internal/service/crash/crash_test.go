package crash

import (
	"strings"
	"testing"
)

// TestHarnessPassesOnCurrentCode is the headline result: every crash
// prefix of every canonical workload, in every torn/garbled variant,
// recovers without violating a single durability invariant.
func TestHarnessPassesOnCurrentCode(t *testing.T) {
	rep, err := Run(Options{Sector: 32, MaxTorn: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("crash enumeration found %d invariant violations; first: %v",
			rep.FailureCount, rep.Failures[:min(3, len(rep.Failures))])
	}
	if len(rep.Workloads) != len(workloads()) {
		t.Fatalf("ran %d workloads, want all %d", len(rep.Workloads), len(workloads()))
	}
	if rep.CrashPoints < 100 || rep.Checks < 1000 {
		t.Fatalf("enumeration suspiciously small: %d crash points, %d checks", rep.CrashPoints, rep.Checks)
	}
	for _, w := range rep.Workloads {
		if w.CrashPoints != w.Ops+1 {
			t.Fatalf("workload %s: %d crash points for %d ops, want ops+1", w.Name, w.CrashPoints, w.Ops)
		}
		if w.States < w.CrashPoints {
			t.Fatalf("workload %s: fewer states (%d) than crash points (%d)", w.Name, w.States, w.CrashPoints)
		}
	}
}

// TestHarnessDetectsMissingDirSync is the harness's own regression
// proof: on a filesystem that silently drops directory fsyncs — the
// failure mode of WriteFileAtomic without the parent-dir fsync, or of
// a log created without syncing its directory — the enumeration
// MUST report lost acknowledged results. A harness that stays green
// under that fault could not have vouched for the fix.
func TestHarnessDetectsMissingDirSync(t *testing.T) {
	rep, err := Run(Options{Sector: 32, MaxTorn: 1, SimulateDirSyncLoss: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK {
		t.Fatal("harness stayed green with directory fsyncs dropped; it cannot detect missing parent-dir syncs")
	}
	lost := false
	for _, f := range rep.Failures {
		if strings.Contains(f, "lost") {
			lost = true
			break
		}
	}
	if !lost {
		t.Fatalf("expected acknowledged-data-loss failures, got: %v", rep.Failures[:min(5, len(rep.Failures))])
	}
}

// TestWorkloadFilter pins the -workload CLI knob.
func TestWorkloadFilter(t *testing.T) {
	rep, err := Run(Options{Workloads: []string{"journal-burst"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != 1 || rep.Workloads[0].Name != "journal-burst" {
		t.Fatalf("filter ran %+v, want exactly journal-burst", rep.Workloads)
	}
	if !rep.OK {
		t.Fatalf("journal-burst alone failed: %v", rep.Failures)
	}
	if _, err := Run(Options{Workloads: []string{"no-such"}}); err == nil {
		t.Fatal("unknown workload name silently ignored")
	}
}
