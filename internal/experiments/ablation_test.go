package experiments

import (
	"strings"
	"testing"
)

func TestAblateSuppression(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation is slow")
	}
	r, err := AblateSuppression(Smoke, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	base, none, aggressive := r.Rows[0], r.Rows[1], r.Rows[2]
	if none.Updates <= base.Updates {
		t.Errorf("disabling suppression should send more updates: %d vs %d",
			none.Updates, base.Updates)
	}
	if none.Suppressed != 0 {
		t.Errorf("no-suppression variant suppressed %d updates", none.Suppressed)
	}
	if aggressive.Updates >= base.Updates {
		t.Errorf("aggressive suppression should send fewer updates: %d vs %d",
			aggressive.Updates, base.Updates)
	}
	if none.G <= aggressive.G {
		t.Errorf("more updates should cost more overhead: %v vs %v", none.G, aggressive.G)
	}
	if !strings.Contains(r.Table(), "suppression") {
		t.Error("table missing title")
	}
}

// TestAblationRowFailsOverBudget: an ablation row is an audited run, so
// a run its event budget cut short is an error, never a printed row.
func TestAblationRowFailsOverBudget(t *testing.T) {
	cfg := ablationConfig(Smoke, 1)
	cfg.MaxEvents = 1000
	_, err := runAblationVariant("over budget", cfg, "LOWEST")
	if err == nil || !strings.Contains(err.Error(), "progress: sim: event budget exceeded") {
		t.Fatalf("over-budget ablation run returned %v, want the audit's progress violation", err)
	}
}

func TestAblateEstimators(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation is slow")
	}
	r, err := AblateEstimators(Smoke, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.Rows[0].Digests != 0 {
		t.Error("direct-update variant produced digests")
	}
	for _, row := range r.Rows[1:] {
		if row.Digests == 0 {
			t.Errorf("estimator variant %q produced no digests", row.Variant)
		}
	}
	// More estimators means more heartbeat digests.
	if r.Rows[3].Digests <= r.Rows[1].Digests {
		t.Errorf("digest count should grow with estimators: %d vs %d",
			r.Rows[3].Digests, r.Rows[1].Digests)
	}
}

func TestAblateMiddleware(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation is slow")
	}
	r, err := AblateMiddleware(Smoke, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// A catastrophic middleware must not improve efficiency.
	if r.Rows[2].Efficiency > r.Rows[0].Efficiency+0.02 {
		t.Errorf("slow middleware improved efficiency: %v vs %v",
			r.Rows[2].Efficiency, r.Rows[0].Efficiency)
	}
}

func TestAblateTuner(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation is slow")
	}
	r, err := AblateTuner(Smoke, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Evals == 0 {
			t.Errorf("%s recorded no evaluations", row.Variant)
		}
		if row.G <= 0 {
			t.Errorf("%s found no overhead", row.Variant)
		}
	}
}

func TestAblateFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation is slow")
	}
	r, err := AblateFaults(Smoke, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	healthy, crashes := r.Rows[0], r.Rows[1]
	if crashes.Success > healthy.Success+0.02 {
		t.Errorf("crashes should not improve success: %v vs %v",
			crashes.Success, healthy.Success)
	}
}

// TestMeasureRPOverhead reads the paper's future-work item (c) off a
// case result: scalability measured from the RP overhead h(k) instead
// of the RMS overhead, which examples/measure prints.
func TestMeasureRPOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("case run is slow")
	}
	r, err := RunCaseSpec(1, RunSpec{Fidelity: Smoke, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Measurements) != 7 {
		t.Fatalf("measurements = %d", len(r.Measurements))
	}
	for _, name := range r.Order {
		h := r.Measurements[name].NormalizedH()
		if h[0] != 1 {
			t.Fatalf("%s h(1) = %v, want 1", name, h[0])
		}
		// The RP is scalable in Case 1: h(k) must grow roughly with
		// the workload, not explode.
		if last := h[len(h)-1]; last <= 0 {
			t.Fatalf("%s h(final) = %v", name, last)
		}
	}
}
