package rms

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"rmscale/internal/grid"
)

// smallConfig returns a quick configuration exercising every code path.
func smallConfig() grid.Config {
	cfg := grid.DefaultConfig()
	cfg.Spec.Clusters = 6
	cfg.Spec.ClusterSize = 8
	cfg.Workload.Clusters = 6
	cfg.Workload.ArrivalRate = 0.0824 // ~0.9 utilization on 48 resources
	cfg.Workload.Horizon = 2500
	cfg.Horizon = 2500
	cfg.Drain = 2500
	return cfg
}

func runModel(t *testing.T, p grid.Policy, cfg grid.Config) grid.Summary {
	t.Helper()
	e, err := grid.New(cfg, p)
	if err != nil {
		t.Fatalf("%s: %v", p.Name(), err)
	}
	sum := e.Run()
	if e.K.Overflowed {
		t.Fatalf("%s: event budget overflow", p.Name())
	}
	return sum
}

// TestAllModelsSmoke runs every model end-to-end and checks the
// conservation invariants of the accounting.
func TestAllModelsSmoke(t *testing.T) {
	for _, p := range All() {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			cfg := smallConfig()
			e, err := grid.New(cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			sum := e.Run()
			m := e.Metrics
			t.Logf("%s: %v transfers=%d polls=%d updates=%d suppressed=%d unfinished=%d",
				p.Name(), sum, m.JobTransfers, m.PolicyMsgs, m.UpdatesSent, m.UpdatesSuppressed, e.Unfinished())

			if m.JobsArrived == 0 {
				t.Fatal("no jobs arrived")
			}
			if m.JobsCompleted == 0 {
				t.Fatal("no jobs completed")
			}
			if m.JobsCompleted+m.JobsLost+e.Unfinished() != m.JobsArrived {
				t.Fatalf("job conservation violated: %d completed + %d lost + %d unfinished != %d arrived",
					m.JobsCompleted, m.JobsLost, e.Unfinished(), m.JobsArrived)
			}
			if m.JobsSucceeded > m.JobsCompleted {
				t.Fatal("more successes than completions")
			}
			if sum.F < 0 || sum.G < 0 || sum.H < 0 {
				t.Fatalf("negative accounting: %+v", sum)
			}
			if sum.G == 0 {
				t.Fatal("RMS overhead is zero; scheduling must cost something")
			}
			if sum.Efficiency <= 0 || sum.Efficiency >= 1 {
				t.Fatalf("efficiency %v outside (0,1)", sum.Efficiency)
			}
			// The vast majority of jobs must finish in a drained run.
			if frac := float64(m.JobsCompleted) / float64(m.JobsArrived); frac < 0.9 {
				t.Fatalf("only %.2f of jobs completed", frac)
			}
			if m.UpdatesSent == 0 {
				t.Fatal("no status updates sent")
			}
			if m.UpdatesSuppressed == 0 {
				t.Fatal("update suppression never triggered")
			}
		})
	}
}

// runPin pins one model's run of grid.DefaultConfig() at seed 1. The
// event count must match exactly: the run is deterministic in the seed,
// so a drift means the model's behaviour or the engine's event
// structure changed. allocs caps the allocations of one build and run
// together at the value measured when it was set (in the comment) plus
// 10%, rounded down. summary is the SHA-256 of the run's Summary as
// JSON.
type runPin struct {
	events  uint64
	allocs  float64
	summary string
}

// defaultRuns pins the runs of grid.DefaultConfig(), which reports
// status updates straight to the schedulers.
var defaultRuns = map[string]runPin{
	"CENTRAL": {4988, 794, "af1813e939b0ea224d9128d4dd35325d59d2e8a9aa11b15bf3e363d01e76f8ae"},   // 722
	"LOWEST":  {8793, 3649, "b9b90d5e989eb880806ab41c66be4186536b983fc1b08c71e53bb89be3135569"},  // 3318
	"RESERVE": {6599, 2038, "d9a95def5a808f3906312e19d71b160d7be2594f445b3e7a87724455a7420e2c"},  // 1853
	"AUCTION": {17606, 8153, "66d7676a83207216a217cabe434164c4ef96f222ea4e0534b91772dd6e87e64e"}, // 7412
	"S-I":     {10643, 4576, "3064e8fbf78a6e333f0218f318060878b9421de5a805377b75110fc41d9860d9"}, // 4160
	"R-I":     {6520, 1845, "8e648d0b2677fccf78d1fd05833d8b12b1022e25dfadb21f838b2a9465571aab"},  // 1678
	"Sy-I":    {13335, 3340, "322f325d25038ddea3dac9c65c97df87288ceb98d0a7423d7988a90632a50e41"}, // 3037
}

// estimatorRuns pins the same runs with an estimator layer of four
// (Spec.Estimators = 4): the resources report to estimators, which
// broadcast digests to every scheduler, as in Case 3.
var estimatorRuns = map[string]runPin{
	"CENTRAL": {9584, 4688, "e476543ae04953127de2d374afd122f3655fc409538273d811e7cac300c1d028"},   // 4262
	"LOWEST":  {28531, 7509, "ca7f5c91ccd17251ff61952e9948af3e402edc771e9e875db02864a5b50fd39c"},  // 6827
	"RESERVE": {26362, 5878, "7cf389f8d091dd74d69e58fdf4092b8684fe801d8b7e8e7d0d8223c6d7b49dab"},  // 5344
	"AUCTION": {49235, 14905, "cdb9a539771de92e08a5d2e3c06b94c96164c8dec7a9f3402a326534d2880437"}, // 13550
	"S-I":     {30368, 8445, "98c19c29dcaee1640677e77e535cb7fdc6078e10b4ebde7683a36f175ad0f05d"},  // 7678
	"R-I":     {26498, 5750, "92e88cfa0882eee30216cfdb1cae3c698edfea7c4c84ebc69d701e36d6039b6d"},  // 5228
	"Sy-I":    {41252, 7180, "ab067035fea3a744a37a02dc5274f10b9cb01fb2e066bef15044a4653ddc20aa"},  // 6528
}

// newDefaultEngine builds the named model over grid.DefaultConfig() at
// seed 1 with the given estimator count: the run
// TestDefaultRunEventsAndAllocs pins and BenchmarkEngine times without
// estimators, and TestEstimatorRunEventsAndAllocs pins with four.
func newDefaultEngine(tb testing.TB, model string, estimators int) *grid.Engine {
	tb.Helper()
	p, err := ByName(model)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := grid.DefaultConfig()
	cfg.Seed = 1
	cfg.Spec.Estimators = estimators
	e, err := grid.New(cfg, p)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// checkRun counts one run of the model against its pin, then measures
// the allocations of a second build and run together.
func checkRun(t *testing.T, model string, estimators int, pins map[string]runPin) {
	t.Helper()
	pin, ok := pins[model]
	if !ok {
		t.Fatal("no pinned run")
	}
	e := newDefaultEngine(t, model, estimators)
	sum := e.Run()
	if n := e.K.Processed(); n != pin.events {
		t.Errorf("processed %d events, want %d", n, pin.events)
	}
	js, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(js)); got != pin.summary {
		t.Errorf("summary digest %s, want %s: %+v", got, pin.summary, sum)
	}
	allocs := testing.AllocsPerRun(1, func() { newDefaultEngine(t, model, estimators).Run() })
	if allocs > pin.allocs {
		t.Errorf("build and run allocate %.0f times, budget %.0f", allocs, pin.allocs)
	}
}

// TestDefaultRunEventsAndAllocs checks every model's default run
// against defaultRuns.
func TestDefaultRunEventsAndAllocs(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) { checkRun(t, name, 0, defaultRuns) })
	}
}

// TestEstimatorRunEventsAndAllocs checks every model's default run
// with four estimators against estimatorRuns.
func TestEstimatorRunEventsAndAllocs(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) { checkRun(t, name, 4, estimatorRuns) })
	}
}

// BenchmarkEngine times Run alone on each model's default-config
// build. It reports events/run, ns/run and allocs/run besides ns/event
// and allocs/event: a change that removes cheap events (the skipped
// status ticks) raises the per-event figures while each run gets
// faster, so only the per-run ones compare across such a change. The
// allocations include the build, as TestDefaultRunEventsAndAllocs
// budgets them.
func BenchmarkEngine(b *testing.B) {
	for _, name := range Names() {
		b.Run(name, func(b *testing.B) {
			var ms runtime.MemStats
			var events, mallocs uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				e := newDefaultEngine(b, name, 0)
				b.StartTimer()
				e.Run()
				b.StopTimer()
				runtime.ReadMemStats(&ms)
				mallocs += ms.Mallocs - before
				events += e.K.Processed()
				b.StartTimer()
			}
			ns, runs := float64(b.Elapsed().Nanoseconds()), float64(b.N)
			b.ReportMetric(float64(events)/runs, "events/run")
			b.ReportMetric(ns/runs, "ns/run")
			b.ReportMetric(float64(mallocs)/runs, "allocs/run")
			b.ReportMetric(ns/float64(events), "ns/event")
			b.ReportMetric(float64(mallocs)/float64(events), "allocs/event")
		})
	}
}

// TestDistributedModelsTransferLoad checks that every non-central model
// actually moves REMOTE jobs between clusters.
func TestDistributedModelsTransferLoad(t *testing.T) {
	for _, p := range All() {
		p := p
		if p.Central() {
			continue
		}
		t.Run(p.Name(), func(t *testing.T) {
			cfg := smallConfig()
			e, err := grid.New(cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			e.Run()
			if e.Metrics.JobTransfers == 0 {
				t.Fatalf("%s never transferred a job", p.Name())
			}
			if e.Metrics.PolicyMsgs == 0 {
				t.Fatalf("%s never exchanged protocol messages", p.Name())
			}
		})
	}
}

// TestDeterminism: same seed, same policy type, identical summaries.
func TestDeterminism(t *testing.T) {
	for _, name := range []string{"CENTRAL", "LOWEST", "AUCTION", "Sy-I"} {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := smallConfig()
			p1, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			p2, _ := ByName(name)
			a := runModel(t, p1, cfg)
			b := runModel(t, p2, cfg)
			if a != b {
				t.Fatalf("same seed diverged:\n a=%v\n b=%v", a, b)
			}
		})
	}
}

// TestSeedSensitivity: different seeds give different summaries.
func TestSeedSensitivity(t *testing.T) {
	cfg := smallConfig()
	a := runModel(t, NewLowest(), cfg)
	cfg.Seed = 999
	b := runModel(t, NewLowest(), cfg)
	if a == b {
		t.Fatal("different seeds produced identical summaries")
	}
}

// TestNamesMatchModels: Names reads the roster without building the
// models, and must list each All() model's own Name in the same order.
func TestNamesMatchModels(t *testing.T) {
	names, models := Names(), All()
	if len(names) != len(models) {
		t.Fatalf("Names() lists %d models, All() builds %d", len(names), len(models))
	}
	for i, m := range models {
		if names[i] != m.Name() {
			t.Errorf("Names()[%d] = %q, All()[%d].Name() = %q", i, names[i], i, m.Name())
		}
	}
}
