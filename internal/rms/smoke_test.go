package rms

import (
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

// defaultRuns pins each model's run of grid.DefaultConfig() at seed 1.
// The event count must match exactly: the run is deterministic in the
// seed, so a drift means the model's behaviour changed. The budget caps
// allocations per event, build included, at the value measured when it
// was set (in the comment) plus 10%, rounded down.
var defaultRuns = map[string]struct {
	events uint64
	allocs float64
}{
	"CENTRAL": {15048, 0.0914}, // 0.0831
	"LOWEST":  {18798, 0.2268}, // 0.2062
	"RESERVE": {16615, 0.1596}, // 0.1452
	"AUCTION": {27402, 0.3200}, // 0.2909
	"S-I":     {20654, 0.2512}, // 0.2284
	"R-I":     {16539, 0.1487}, // 0.1353
	"Sy-I":    {23341, 0.1694}, // 0.1541
}

// newDefaultEngine builds the named model over grid.DefaultConfig() at
// seed 1: the run TestDefaultRunEventsAndAllocs pins and BenchmarkEngine
// times.
func newDefaultEngine(tb testing.TB, model string) *grid.Engine {
	tb.Helper()
	p, err := ByName(model)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := grid.DefaultConfig()
	cfg.Seed = 1
	e, err := grid.New(cfg, p)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// TestDefaultRunEventsAndAllocs counts one run of every model, then
// measures the allocations of a second build and run together.
func TestDefaultRunEventsAndAllocs(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			pin, ok := defaultRuns[name]
			if !ok {
				t.Fatal("no pinned default run")
			}
			e := newDefaultEngine(t, name)
			e.Run()
			if n := e.K.Processed(); n != pin.events {
				t.Fatalf("processed %d events, want %d", n, pin.events)
			}
			allocs := testing.AllocsPerRun(1, func() { newDefaultEngine(t, name).Run() })
			if per := allocs / float64(pin.events); per > pin.allocs {
				t.Errorf("build and run allocate %.4f times per event, budget %.4f", per, pin.allocs)
			}
		})
	}
}

// BenchmarkEngine times Run alone on each model's default-config
// build, and reports ns/event and allocs/event. The allocations include
// the build, as TestDefaultRunEventsAndAllocs budgets them.
func BenchmarkEngine(b *testing.B) {
	for _, name := range Names() {
		b.Run(name, func(b *testing.B) {
			var ms runtime.MemStats
			var events, mallocs uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				e := newDefaultEngine(b, name)
				b.StartTimer()
				e.Run()
				b.StopTimer()
				runtime.ReadMemStats(&ms)
				mallocs += ms.Mallocs - before
				events += e.K.Processed()
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
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
