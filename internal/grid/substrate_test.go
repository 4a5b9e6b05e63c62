package grid

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"rmscale/internal/routing"
	"rmscale/internal/sim"
	"rmscale/internal/workload"
)

// sameRoute reports whether two routes are equal bit for bit.
func sameRoute(a, b routing.Route) bool {
	return math.Float64bits(a.Latency) == math.Float64bits(b.Latency) &&
		math.Float64bits(a.Bandwidth) == math.Float64bits(b.Bandwidth)
}

// Oracle: every route an engine entity holds equals a search over the
// whole graph from its endpoint to the endpoint it stands for, with
// estimators and under the central collapse. An estimator assignment
// or row-offset slip in the substrate's tables fails here.
func TestSubstrateRoutesMatchFullSearch(t *testing.T) {
	for _, central := range []bool{false, true} {
		cfg := testConfig()
		cfg.Spec.Estimators = 3
		e, err := New(cfg, &stubPolicy{central: central})
		if err != nil {
			t.Fatal(err)
		}
		g, mp := e.Graph, e.Map
		all := make([]int, g.N)
		for i := range all {
			all[i] = i
		}
		full := func(src, dst int) routing.Route {
			out := make([]routing.Route, g.N)
			if err := routing.NewRouter(g).Routes(src, all, out); err != nil {
				t.Fatal(err)
			}
			return out[dst]
		}
		check := func(what string, got routing.Route, src, dst int) {
			t.Helper()
			if want := full(src, dst); !sameRoute(got, want) {
				t.Fatalf("central=%v: %s = %+v, full search %d->%d gives %+v", central, what, got, src, dst, want)
			}
		}
		C, E := len(e.Schedulers), len(e.Estimators)
		if central && C != 1 {
			t.Fatalf("central collapse left %d schedulers", C)
		}
		for c, s := range e.Schedulers {
			for c2 := range e.Schedulers {
				check("scheduler->scheduler", s.toSched[c2], mp.SchedulerNode[c], mp.SchedulerNode[c2])
			}
			for r := range e.Resources {
				check("scheduler->resource", s.toRes[r], mp.SchedulerNode[c], mp.ResourceNode[r])
			}
		}
		for i, est := range e.Estimators {
			for c := range e.Schedulers {
				check("estimator->scheduler", est.toSched[c], mp.EstimatorNode[i], mp.SchedulerNode[c])
			}
		}
		for r, res := range e.Resources {
			check("resource->scheduler", res.toSched, mp.ResourceNode[r], mp.SchedulerNode[mp.ResourceCluster[r]])
			check("resource->estimator", res.toEst, mp.ResourceNode[r], mp.EstimatorNode[r%E])
		}
	}
}

// Engines on one substrate share its job stream: one list per workload,
// equal to what the engine's own "workload" stream generates, and the
// enablers do not enter the key.
func TestSubstrateSharesJobStream(t *testing.T) {
	cfg := testConfig()
	sub, err := BuildSubstrate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := NewWith(cfg, &stubPolicy{}, sub)
	if err != nil {
		t.Fatal(err)
	}
	tuned := cfg
	tuned.Enablers.UpdateInterval *= 3
	tuned.Enablers.LinkDelayScale = 2
	e2, err := NewWith(tuned, &stubPolicy{}, sub)
	if err != nil {
		t.Fatal(err)
	}
	if len(e1.Jobs()) == 0 || &e1.Jobs()[0] != &e2.Jobs()[0] {
		t.Fatal("engines on one substrate did not share the job stream")
	}
	want, err := workload.Generate(cfg.Workload, sim.NewSource(cfg.Seed).Stream("workload"))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(e1.Jobs()) {
		t.Fatalf("shared stream has %d jobs, fresh generation %d", len(e1.Jobs()), len(want))
	}
	for i, j := range want {
		if !reflect.DeepEqual(j, e1.Jobs()[i]) {
			t.Fatalf("job %d differs from a fresh generation: %+v vs %+v", i, e1.Jobs()[i], j)
		}
	}
	busier := cfg
	busier.Workload.ArrivalRate *= 2
	e3, err := NewWith(busier, &stubPolicy{}, sub)
	if err != nil {
		t.Fatal(err)
	}
	if len(e3.Jobs()) == len(e1.Jobs()) {
		t.Fatal("a different workload reused the memoised job stream")
	}
}

// Parallel tuner workers build engines on one substrate at once; each
// workload's stream is generated once and every engine gets that list.
// Run under -race.
func TestSubstrateJobStreamConcurrent(t *testing.T) {
	cfg := testConfig()
	sub, err := BuildSubstrate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	jobs := make([][]*workload.Job, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := cfg
			c.Workload.ArrivalRate *= float64(1 + w%2)
			e, err := NewWith(c, &stubPolicy{}, sub)
			if err != nil {
				t.Error(err)
				return
			}
			jobs[w] = e.Jobs()
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for w := 2; w < workers; w++ {
		if &jobs[w][0] != &jobs[w-2][0] {
			t.Fatalf("workers %d and %d got different lists for one workload", w-2, w)
		}
	}
	if &jobs[0][0] == &jobs[1][0] {
		t.Fatal("two workloads share one job list")
	}
}
