package perfbench

import (
	"context"
	"fmt"
	"os"
	"testing"

	"rmscale/internal/service"
	"rmscale/internal/service/loadgen"
)

// Load-iteration shape for the service metrics: 1000 submitted
// experiment objects over 125 distinct specs from 8 concurrent
// clients, the qualifying scale of ISSUE's load harness. The dedup
// counts these produce are pure functions of the shape, which is what
// lets the harness gate them exactly.
const (
	loadObjects  = 1000
	loadDistinct = 125
	loadClients  = 8
	loadHorizon  = 250
)

// serviceMetrics runs one full load iteration against an in-process
// rmscaled (real executor, disk-backed store, real HTTP) and condenses
// it:
//
//   - the dedup accounting (executions, dedup hits, store size) is
//     deterministic in the iteration shape and exact-gated — a drift
//     means content addressing or admission bookkeeping broke;
//   - allocations on the hot dedup-hit path (submit + status + result
//     of an already-stored spec) are max-gated;
//   - latency percentiles, throughput and queue peaks are machine
//     facts, recorded ungated.
func serviceMetrics() ([]Metric, error) {
	dir, err := os.MkdirTemp("", "perfbench-service-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	m, err := loadgen.RunInProcess(loadgen.Options{
		Objects:  loadObjects,
		Distinct: loadDistinct,
		Clients:  loadClients,
		Seed:     benchSeed,
		Horizon:  loadHorizon,
	}, service.Config{Dir: dir, Shards: 2, QueueCap: 256})
	if err != nil {
		return nil, fmt.Errorf("perfbench: service load iteration: %w", err)
	}
	out := []Metric{
		{Name: "service/loadgen/objects", Value: float64(m.Objects), Unit: "objects", Gate: GateExact},
		{Name: "service/loadgen/executions", Value: float64(m.Executions), Unit: "execs", Gate: GateExact},
		{Name: "service/loadgen/dedup_hits", Value: float64(m.DedupHits), Unit: "hits", Gate: GateExact},
		{Name: "service/loadgen/store_len", Value: float64(m.StoreLen), Unit: "results", Gate: GateExact},
		{Name: "service/loadgen/objects_per_sec", Value: m.ObjectsPerSec, Unit: "objects/s", Gate: GateNone},
		{Name: "service/loadgen/wall_sec", Value: m.WallSec, Unit: "s", Gate: GateNone},
		{Name: "service/loadgen/submit_p50_ms", Value: m.SubmitP50Ms, Unit: "ms", Gate: GateNone},
		{Name: "service/loadgen/submit_p99_ms", Value: m.SubmitP99Ms, Unit: "ms", Gate: GateNone},
		{Name: "service/loadgen/status_p99_ms", Value: m.StatusP99Ms, Unit: "ms", Gate: GateNone},
		{Name: "service/loadgen/fetch_p99_ms", Value: m.FetchP99Ms, Unit: "ms", Gate: GateNone},
		{Name: "service/loadgen/max_queue_depth", Value: float64(m.MaxQueueDepth), Unit: "jobs", Gate: GateNone},
		{Name: "service/loadgen/retries_429", Value: float64(m.Retries429), Unit: "retries", Gate: GateNone},
	}
	alloc, err := dedupHitAllocs()
	if err != nil {
		return nil, err
	}
	out = append(out, Metric{
		Name: "service/dedup_hit/allocs", Value: alloc, Unit: "allocs", Gate: GateMax,
	})
	return out, nil
}

// dedupHitAllocs measures allocations on the daemon's dedup fast path:
// submitting an already-stored spec, polling its status and fetching
// its result — the request mix that dominates a saturated service. The
// HTTP layer is excluded (its allocations belong to net/http), so the
// number gates our bookkeeping, not the standard library's.
func dedupHitAllocs() (float64, error) {
	payload := []byte(`{"ok":true}`)
	d, err := service.New(service.Config{
		Shards: 1,
		Exec: func(context.Context, service.ExperimentSpec, string) ([]byte, error) {
			return payload, nil
		},
	})
	if err != nil {
		return 0, err
	}
	defer d.Close()
	spec := service.ExperimentSpec{Kind: service.KindSim, Model: "LOWEST", Seed: benchSeed}
	st, err := d.Submit(spec, "seed")
	if err != nil {
		return 0, err
	}
	st, ok := d.Wait(st.ID)
	if !ok {
		return 0, fmt.Errorf("perfbench: seeded experiment vanished")
	}
	if st.State != service.StateDone {
		return 0, fmt.Errorf("perfbench: seeded experiment ended %s: %s", st.State, st.Error)
	}
	var submitErr error
	allocs := testing.AllocsPerRun(200, func() {
		s, err := d.Submit(spec, "probe")
		if err != nil || !s.Dedup {
			submitErr = fmt.Errorf("dedup submit: %+v, %v", s, err)
			return
		}
		if _, ok := d.Status(st.ID); !ok {
			submitErr = fmt.Errorf("status lost %s", st.ID)
			return
		}
		if _, ok := d.Result(st.ID); !ok {
			submitErr = fmt.Errorf("result lost %s", st.ID)
		}
	})
	if submitErr != nil {
		return 0, submitErr
	}
	return allocs, nil
}
