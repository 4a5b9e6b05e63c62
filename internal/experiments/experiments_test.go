package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"rmscale/internal/grid"
	"rmscale/internal/rms"
	"rmscale/internal/runner"
	"rmscale/internal/scale"
)

func TestFidelityParse(t *testing.T) {
	for _, s := range []string{"smoke", "quick", "full"} {
		f, err := ParseFidelity(s)
		if err != nil {
			t.Fatal(err)
		}
		if f.String() != s {
			t.Fatalf("round trip %q -> %v", s, f)
		}
	}
	if _, err := ParseFidelity("nope"); err == nil {
		t.Fatal("bad fidelity accepted")
	}
}

func TestTables(t *testing.T) {
	var buf bytes.Buffer
	c := PaperConstants()
	if c.TCPU != 700 || c.ThresholdLoad != 0.5 || c.BenefitMin != 2 || c.BenefitMax != 5 {
		t.Fatalf("paper constants wrong: %+v", c)
	}
	if err := c.WriteTable1(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "T_CPU") {
		t.Fatal("Table 1 missing T_CPU")
	}
	buf.Reset()
	if err := WriteScalingTables(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table 2", "Table 3", "Table 4", "Table 5", "volunteering"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("scaling tables missing %q", want)
		}
	}
}

// checkResult asserts structural properties every case result must have.
func checkResult(t *testing.T, r *Result, wantModels int) {
	t.Helper()
	if len(r.Measurements) != wantModels {
		t.Fatalf("measured %d models, want %d", len(r.Measurements), wantModels)
	}
	ks := Smoke.ks()
	for name, m := range r.Measurements {
		if len(m.Points) != len(ks) {
			t.Fatalf("%s: %d points, want %d", name, len(m.Points), len(ks))
		}
		for i, p := range m.Points {
			if p.K != ks[i] {
				t.Fatalf("%s: point %d at k=%d, want %d", name, i, p.K, ks[i])
			}
			if p.G <= 0 {
				t.Fatalf("%s: non-positive overhead at k=%d", name, p.K)
			}
			if p.Obs.F <= 0 {
				t.Fatalf("%s: no useful work at k=%d", name, p.K)
			}
		}
		g := m.NormalizedG()
		if g[0] != 1 {
			t.Fatalf("%s: normalized base %v != 1", name, g[0])
		}
	}
	fig := r.Figure()
	if len(fig.Series) != wantModels {
		t.Fatalf("figure has %d series", len(fig.Series))
	}
	var buf bytes.Buffer
	if err := fig.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "CENTRAL") {
		t.Fatal("figure table missing CENTRAL")
	}
}

func TestRunCase1Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("case run is slow")
	}
	var progressed int
	r, err := RunCaseSpec(1, RunSpec{Fidelity: Smoke, Seed: 1, Progress: func(string, scale.Point) { progressed++ }})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, r, 7)
	if progressed != 7*len(Smoke.ks()) {
		t.Fatalf("progress fired %d times, want %d", progressed, 7*len(Smoke.ks()))
	}
	for name, m := range r.Measurements {
		t.Logf("%-8s g(k)=%v slopes=%v", name, m.NormalizedG(), m.Slopes())
	}
}

func TestRunCase2Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("case run is slow")
	}
	r, err := RunCaseSpec(2, RunSpec{Fidelity: Smoke, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, r, 7)
}

func TestRunCase3Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("case run is slow")
	}
	r, err := RunCaseSpec(3, RunSpec{Fidelity: Smoke, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, r, 7)
	// Case 3 also yields Figures 6 and 7.
	th := r.ThroughputFigure()
	rt := r.ResponseFigure()
	if len(th.Series) != 7 || len(rt.Series) != 7 {
		t.Fatalf("throughput/response figures incomplete: %d, %d", len(th.Series), len(rt.Series))
	}
	for _, s := range th.Series {
		for i, y := range s.Y {
			if y <= 0 {
				t.Fatalf("%s throughput[%d] = %v", s.Name, i, y)
			}
		}
	}
}

func TestRunCase4Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("case run is slow")
	}
	r, err := RunCaseSpec(4, RunSpec{Fidelity: Smoke, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, r, 7)
}

// TestCaseDeterminism: the entire measurement pipeline (topology,
// workload, simulation, annealing) must reproduce bit-identically for
// the same seed.
func TestCaseDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("case run is slow")
	}
	a, err := RunCaseSpec(4, RunSpec{Fidelity: Smoke, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCaseSpec(4, RunSpec{Fidelity: Smoke, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for name, ma := range a.Measurements {
		mb := b.Measurements[name]
		if mb == nil {
			t.Fatalf("%s missing from second run", name)
		}
		ga, gb := ma.GCurve(), mb.GCurve()
		for i := range ga {
			if ga[i] != gb[i] {
				t.Fatalf("%s: G(%d) differs: %v vs %v", name, i, ga[i], gb[i])
			}
		}
	}
}

// TestSimPayloadReadsOlderEntries: a run directory written while the
// cached sim payload also carried an event-budget flag still replays:
// simulate decodes the entry and serves its summary without running
// the engine.
func TestSimPayloadReadsOlderEntries(t *testing.T) {
	run, err := runner.Start(runner.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer run.Wait()
	p, err := rms.ByName("LOWEST")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ablationConfig(Smoke, 1)
	// No engine run produces this summary, so a re-run cannot pass.
	want := grid.Summary{F: 1, G: 2, H: 3, Efficiency: 1.0 / 6, Jobs: 7, FirstViolation: "stored"}
	old, err := json.Marshal(struct {
		Sum        grid.Summary
		Overflowed bool
	}{Sum: want})
	if err != nil {
		t.Fatal(err)
	}
	key, err := runner.KeyOf("sim/v1", Smoke.String(), p.Name(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Cache.Put(key, old); err != nil {
		t.Fatal(err)
	}
	got, err := simulate(run, grid.NewSubstrateCache(), Smoke, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("simulate served %+v, want the stored %+v", got, want)
	}
}
