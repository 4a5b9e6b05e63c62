package rms_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rmscale/internal/experiments"
	"rmscale/internal/grid"
	"rmscale/internal/rms"
)

// updateFaults are the fault loads of TestUpdatePathMatrix: none,
// resource crashes with repair (a resource sits out whole update
// periods while down), status-update loss (a sending tick draws from
// the faults stream), and the churn experiment's manager-side load.
var updateFaults = []struct {
	name  string
	model grid.FaultModel
}{
	{"none", grid.FaultModel{}},
	{"crash", grid.FaultModel{ResourceMTBF: 2000, RepairTime: 150}},
	{"loss", grid.FaultModel{UpdateLossProb: 0.2}},
	{"churn", experiments.ChurnFaults()},
}

// updateMatrixRun is one line of the matrix: the run's update counters
// and a SHA-256 of its Summary as JSON.
func updateMatrixRun(t *testing.T, model string, delta float64, estimators int, faults int) string {
	t.Helper()
	p, err := rms.ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	cfg := grid.DefaultConfig()
	cfg.Spec.Clusters = 6
	cfg.Spec.ClusterSize = 8
	cfg.Spec.Estimators = estimators
	cfg.Workload.Clusters = 6
	cfg.Workload.ArrivalRate = 0.0824 // ~0.9 utilization on 48 resources
	cfg.Workload.Horizon = 2500
	cfg.Horizon = 2500
	cfg.Drain = 2500
	cfg.Protocol.SuppressDelta = delta
	cfg.Faults = updateFaults[faults].model
	e, err := grid.New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	sum := e.Run()
	if err := e.K.Err(); err != nil {
		t.Fatalf("%s: %v", model, err)
	}
	js, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	m := e.Metrics
	return fmt.Sprintf("%s delta=%g est=%d faults=%s sent=%d suppressed=%d lost=%d summary=%x",
		model, delta, estimators, updateFaults[faults].name,
		m.UpdatesSent, m.UpdatesSuppressed, m.UpdatesLost, sha256.Sum256(js))
}

// TestUpdatePathMatrix pins every model's status-update accounting and
// Summary over the paths the figure goldens skip: the always-send
// variant (SuppressDelta 0) and two thresholds, with and without an
// estimator layer, under resource crashes, update loss and churn. The
// pins in testdata/update_matrix.golden were captured when every
// resource still fired each of its ticks as a kernel event; counting
// suppressed ticks instead must leave every line unchanged.
func TestUpdatePathMatrix(t *testing.T) {
	var got []string
	for _, model := range rms.Names() {
		for _, delta := range []float64{0, 0.5, 2.5} {
			for _, est := range []int{0, 4} {
				for f := range updateFaults {
					got = append(got, updateMatrixRun(t, model, delta, est, f))
				}
			}
		}
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "update_matrix.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%d runs, golden has %d lines", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("run %d diverged:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}
