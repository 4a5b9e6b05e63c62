package experiments

import (
	"os"
	"strings"
	"testing"
)

// TestProbeQuickCase runs one case at Quick fidelity and prints the
// figure, for calibration inspection. Enabled only via RMSCALE_PROBE so
// normal test runs stay fast: RMSCALE_PROBE=1|2|3|4 selects the case.
func TestProbeQuickCase(t *testing.T) {
	which := os.Getenv("RMSCALE_PROBE")
	if which == "" {
		t.Skip("set RMSCALE_PROBE=<case> to run the calibration probe")
	}
	id, ok := map[string]int{"1": 1, "2": 2, "3": 3, "4": 4}[which]
	if !ok {
		t.Fatalf("RMSCALE_PROBE=%q invalid", which)
	}
	r, err := RunCaseSpec(id, RunSpec{Fidelity: Quick, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := r.Figure().WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", buf.String())
	if which == "3" {
		buf.Reset()
		if err := r.ThroughputFigure().WriteTable(&buf); err != nil {
			t.Fatal(err)
		}
		t.Logf("\n%s", buf.String())
		buf.Reset()
		if err := r.ResponseFigure().WriteTable(&buf); err != nil {
			t.Fatal(err)
		}
		t.Logf("\n%s", buf.String())
	}
	for name, m := range r.Measurements {
		var feas []bool
		var effs []float64
		for _, p := range m.Points {
			feas = append(feas, p.Feasible)
			effs = append(effs, p.Obs.Efficiency)
		}
		t.Logf("%-8s feasible=%v eff=%.3v", name, feas, effs)
	}
}
