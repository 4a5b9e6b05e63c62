// Benchmarks regenerating every table and figure of the paper's
// evaluation section. Each BenchmarkFigureN/BenchmarkTableN runs the
// code path that produces that artifact; the figure benches run the
// full measurement pipeline (simulation + isoefficiency tuning for all
// seven RMS models) at smoke fidelity so `go test -bench=.` completes
// in minutes. For publication-quality curves run:
//
//	go run ./cmd/rmscale -fidelity full all
//
// The reported custom metrics summarize the reproduced shape: the final
// (k=max) overhead of the centralized model versus the best distributed
// model, which is the headline comparison of each figure.
package rmscale_test

import (
	"io"
	"testing"

	"rmscale"
	"rmscale/internal/experiments"
)

// benchSeed keeps every figure bench deterministic.
const benchSeed = 1

// reportShape attaches shape metrics to a figure bench: the final
// overhead of CENTRAL and of the best/worst distributed models.
func reportShape(b *testing.B, r *rmscale.CaseResult) {
	b.Helper()
	var central float64
	best, worst := 0.0, 0.0
	for name, m := range r.Measurements {
		g := m.GCurve()
		final := g[len(g)-1]
		if name == "CENTRAL" {
			central = final
			continue
		}
		if best == 0 || final < best {
			best = final
		}
		if final > worst {
			worst = final
		}
	}
	b.ReportMetric(central, "G_central_final")
	b.ReportMetric(best, "G_bestDistributed_final")
	b.ReportMetric(worst, "G_worstDistributed_final")
}

// BenchmarkFigure2 regenerates Figure 2: G(k) for all seven models as
// the resource pool scales by network size (Case 1, Table 2).
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := rmscale.RunCaseSpec(1, rmscale.RunSpec{Fidelity: experiments.Smoke, Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Figure().WriteTable(io.Discard); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportShape(b, r)
		}
	}
}

// BenchmarkFigure3 regenerates Figure 3: G(k) as the resource pool
// scales by service rate (Case 2, Table 3).
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := rmscale.RunCaseSpec(2, rmscale.RunSpec{Fidelity: experiments.Smoke, Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Figure().WriteTable(io.Discard); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportShape(b, r)
		}
	}
}

// case3Result memoizes the Case 3 run shared by Figures 4, 6 and 7 so
// the three benches measure rendering against one computed result and
// the full pipeline is timed once, in BenchmarkFigure4.
var case3Result *rmscale.CaseResult

func runCase3(b *testing.B) *rmscale.CaseResult {
	b.Helper()
	if case3Result == nil {
		r, err := rmscale.RunCaseSpec(3, rmscale.RunSpec{Fidelity: experiments.Smoke, Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		case3Result = r
	}
	return case3Result
}

// BenchmarkFigure4 regenerates Figure 4: G(k) as the RMS scales by the
// number of status estimators (Case 3, Table 4).
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		case3Result = nil
		r := runCase3(b)
		if err := r.Figure().WriteTable(io.Discard); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportShape(b, r)
		}
	}
}

// BenchmarkFigure5 regenerates Figure 5: G(k) as the RMS scales by L_p
// (Case 4, Table 5).
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := rmscale.RunCaseSpec(4, rmscale.RunSpec{Fidelity: experiments.Smoke, Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Figure().WriteTable(io.Discard); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportShape(b, r)
		}
	}
}

// BenchmarkFigure6 regenerates Figure 6: throughput versus estimator
// scale for every model (the Case 3 result viewed by throughput).
func BenchmarkFigure6(b *testing.B) {
	r := runCase3(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.ThroughputFigure().WriteTable(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	if m := r.Measurements["CENTRAL"]; m != nil && len(m.Points) > 0 {
		th := m.Throughputs()
		b.ReportMetric(th[len(th)-1], "central_thpt_final")
	}
}

// BenchmarkFigure7 regenerates Figure 7: average response time versus
// estimator scale (the Case 3 result viewed by response time).
func BenchmarkFigure7(b *testing.B) {
	r := runCase3(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.ResponseFigure().WriteTable(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	if m := r.Measurements["CENTRAL"]; m != nil && len(m.Points) > 0 {
		rt := m.ResponseTimes()
		b.ReportMetric(rt[len(rt)-1], "central_resp_final")
	}
}

// BenchmarkTable1 regenerates Table 1 (the common experiment
// constants).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := rmscale.PaperConstantsTable(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTables2to5 regenerates Tables 2-5 (the scaling variables and
// enablers of the four cases).
func BenchmarkTables2to5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := rmscale.ScalingTables(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunnerColdPath times a full Smoke case through the runner
// with nothing cached: every tuner evaluation simulates. This is the
// baseline the cache-hit bench is read against in the perf trajectory.
func BenchmarkRunnerColdPath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := rmscale.RunCaseSpec(4, rmscale.RunSpec{
			Fidelity: experiments.Smoke, Seed: benchSeed, Workers: 4,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunnerCacheHit times the same case against a warm
// content-addressed disk cache: every iteration re-tunes end to end,
// and every evaluation is a cache hit.
func BenchmarkRunnerCacheHit(b *testing.B) {
	dir := b.TempDir()
	warm := func() {
		if _, err := rmscale.RunCaseSpec(4, rmscale.RunSpec{
			Fidelity: experiments.Smoke, Seed: benchSeed, Workers: 4, Dir: dir,
		}); err != nil {
			b.Fatal(err)
		}
	}
	warm()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warm()
	}
}

// BenchmarkSingleSimulation times one base-grid simulation of the
// default configuration under LOWEST — the unit of work every
// measurement point multiplies.
func BenchmarkSingleSimulation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := rmscale.DefaultConfig()
		eng, err := rmscale.NewEngine(cfg, rmscale.NewLowest())
		if err != nil {
			b.Fatal(err)
		}
		eng.Run()
	}
}

// BenchmarkSingleSimulationCentral times the centralized model on the
// same grid for comparison.
func BenchmarkSingleSimulationCentral(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := rmscale.DefaultConfig()
		eng, err := rmscale.NewEngine(cfg, rmscale.NewCentral())
		if err != nil {
			b.Fatal(err)
		}
		eng.Run()
	}
}

// BenchmarkSubstrateBuild times the topology + routing build that the
// substrate cache amortizes across tuner evaluations: a fresh cache
// builds on every Get.
func BenchmarkSubstrateBuild(b *testing.B) {
	b.ReportAllocs()
	cfg := rmscale.DefaultConfig()
	for i := 0; i < b.N; i++ {
		if _, err := rmscale.NewSubstrateCache().Get(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulationWithSubstrateReuse shows the per-evaluation cost
// once the substrate is shared — the regime the annealing tuner runs in.
func BenchmarkSimulationWithSubstrateReuse(b *testing.B) {
	cfg := rmscale.DefaultConfig()
	sub, err := rmscale.NewSubstrateCache().Get(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := rmscale.NewEngineWith(cfg, rmscale.NewLowest(), sub)
		if err != nil {
			b.Fatal(err)
		}
		eng.Run()
	}
}

// BenchmarkAblationSuppression regenerates the update-suppression
// ablation (DESIGN.md: the "update optimization" shared by all periodic
// schemes).
func BenchmarkAblationSuppression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := rmscale.RunAblations(experiments.Smoke, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if len(rs) == 0 {
			b.Fatal("no ablations")
		}
	}
}
