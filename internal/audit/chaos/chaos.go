// Package chaos is the invariant-hunting harness on top of
// internal/audit: it generates random but fully deterministic fault
// schedules (scheduler/estimator crashes, protocol-loss windows —
// optionally metric corruptions for self-tests), runs each against an
// audited engine, replays violations to confirm deterministic
// reproduction, and shrinks failing schedules to minimal reproducers
// serialized as runnable JSON.
package chaos

import (
	"fmt"
	"math"

	"rmscale/internal/audit"
	"rmscale/internal/grid"
	"rmscale/internal/rms"
	"rmscale/internal/topology"
)

// meanJobRuntime mirrors the workload model's mean job runtime (see
// internal/experiments); Util*resources/meanJobRuntime is the arrival
// rate that loads the pool to Util.
const meanJobRuntime = 524.2

// Crash scripts one RMS-node outage.
type Crash struct {
	// Target is the cluster (scheduler crash) or estimator index; it is
	// clamped modulo the live entity count, so schedules stay valid
	// across the central-policy collapse to one cluster.
	Target int
	At     float64
	Repair float64
}

// Window scripts one total protocol-loss interval.
type Window struct {
	Start    float64
	Duration float64
}

// Corruption kinds deliberately falsify one metric mid-run; they exist
// to prove the auditor detects, replays and shrinks real violations.
const (
	// CorruptNegativeOverhead drives G negative.
	CorruptNegativeOverhead = "negative-overhead"
	// CorruptPhantomComplete inflates JobsCompleted past admission.
	CorruptPhantomComplete = "phantom-complete"
	// CorruptPhantomRetry inflates MsgRetries, breaking the
	// lost = retried + abandoned identity.
	CorruptPhantomRetry = "phantom-retry"
)

// Corruption scripts one metric falsification at a simulated time.
type Corruption struct {
	Kind string
	At   float64
}

// Schedule is one complete, runnable chaos scenario: a compact grid, a
// model, a seed, and a scripted fault (and optionally corruption)
// timeline. It round-trips through JSON as the reproducer format.
type Schedule struct {
	Name  string
	Model string
	Seed  int64

	Clusters    int
	ClusterSize int
	Estimators  int
	Horizon     float64
	Drain       float64
	// Util is the offered load as a fraction of pool capacity.
	Util float64

	SchedCrashes []Crash      `json:",omitempty"`
	EstCrashes   []Crash      `json:",omitempty"`
	LossWindows  []Window     `json:",omitempty"`
	Corruptions  []Corruption `json:",omitempty"`
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Validate reports the first nonsensical schedule field.
func (s Schedule) Validate() error {
	if _, err := rms.ByName(s.Model); err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	switch {
	case s.Clusters < 1:
		return fmt.Errorf("chaos: Clusters must be >= 1, got %d", s.Clusters)
	case s.ClusterSize < 1:
		return fmt.Errorf("chaos: ClusterSize must be >= 1, got %d", s.ClusterSize)
	case s.Estimators < 0:
		return fmt.Errorf("chaos: negative Estimators %d", s.Estimators)
	case !finite(s.Horizon) || s.Horizon <= 0:
		return fmt.Errorf("chaos: Horizon must be positive and finite, got %v", s.Horizon)
	case !finite(s.Drain) || s.Drain < 0:
		return fmt.Errorf("chaos: Drain must be non-negative and finite, got %v", s.Drain)
	case !finite(s.Util) || s.Util <= 0 || s.Util > 2:
		return fmt.Errorf("chaos: Util must be in (0,2], got %v", s.Util)
	}
	window := s.Horizon + s.Drain
	for i, c := range append(append([]Crash{}, s.SchedCrashes...), s.EstCrashes...) {
		switch {
		case c.Target < 0:
			return fmt.Errorf("chaos: crash %d has negative target %d", i, c.Target)
		case !finite(c.At) || c.At < 0 || c.At >= window:
			return fmt.Errorf("chaos: crash %d at %v outside [0,%v)", i, c.At, window)
		case !finite(c.Repair) || c.Repair <= 0:
			return fmt.Errorf("chaos: crash %d has non-positive repair %v", i, c.Repair)
		}
	}
	for i, w := range s.LossWindows {
		switch {
		case !finite(w.Start) || w.Start < 0 || w.Start >= window:
			return fmt.Errorf("chaos: loss window %d starts at %v outside [0,%v)", i, w.Start, window)
		case !finite(w.Duration) || w.Duration <= 0:
			return fmt.Errorf("chaos: loss window %d has non-positive duration %v", i, w.Duration)
		}
	}
	for i, c := range s.Corruptions {
		switch c.Kind {
		case CorruptNegativeOverhead, CorruptPhantomComplete, CorruptPhantomRetry:
		default:
			return fmt.Errorf("chaos: corruption %d has unknown kind %q", i, c.Kind)
		}
		if !finite(c.At) || c.At < 0 || c.At >= window {
			return fmt.Errorf("chaos: corruption %d at %v outside [0,%v)", i, c.At, window)
		}
	}
	return nil
}

// clone deep-copies the schedule so the shrinker can mutate candidates
// without aliasing the incumbent's slices.
func (s Schedule) clone() Schedule {
	c := s
	c.SchedCrashes = append([]Crash(nil), s.SchedCrashes...)
	c.EstCrashes = append([]Crash(nil), s.EstCrashes...)
	c.LossWindows = append([]Window(nil), s.LossWindows...)
	c.Corruptions = append([]Corruption(nil), s.Corruptions...)
	return c
}

// Events counts the scripted events in the schedule (the shrinker's
// size measure).
func (s Schedule) Events() int {
	return len(s.SchedCrashes) + len(s.EstCrashes) + len(s.LossWindows) + len(s.Corruptions)
}

// config translates the schedule into a grid configuration. The random
// FaultModel stays disabled — every fault is scripted — but the retry
// protocol is armed so losses exercise the timeout path.
func (s Schedule) config() grid.Config {
	cfg := grid.DefaultConfig()
	cfg.Seed = s.Seed
	cfg.Spec = topology.GridSpec{
		Clusters:    s.Clusters,
		ClusterSize: s.ClusterSize,
		Estimators:  s.Estimators,
	}
	cfg.Horizon = s.Horizon
	cfg.Drain = s.Drain
	cfg.Workload.Clusters = s.Clusters
	cfg.Workload.Horizon = s.Horizon
	cfg.Workload.ArrivalRate = s.Util * float64(s.Clusters*s.ClusterSize) / meanJobRuntime
	cfg.Faults.RetryTimeout = 25
	cfg.Faults.MaxRetries = 3
	cfg.MaxEvents = 5_000_000
	return cfg
}

// Report is the outcome of one schedule run.
type Report struct {
	Summary grid.Summary
	// Violations are the auditor's findings verbatim; Kinds the
	// distinct check names in first-seen order.
	Violations []string
	Kinds      []string
	Checks     int
	// Fingerprint identifies the violation set; "" when clean.
	Fingerprint string
}

// Violating reports whether the run broke any invariant.
func (r Report) Violating() bool { return len(r.Violations) > 0 }

// Run executes the schedule against an audited engine and reports the
// audit outcome. Identical schedules produce identical reports — the
// whole pipeline is deterministic in the schedule alone.
func Run(s Schedule) (Report, error) {
	if err := s.Validate(); err != nil {
		return Report{}, err
	}
	p, err := rms.ByName(s.Model)
	if err != nil {
		return Report{}, err
	}
	e, err := grid.New(s.config(), p)
	if err != nil {
		return Report{}, fmt.Errorf("chaos: building %s: %w", s.Name, err)
	}
	if err := e.ArmFaults(); err != nil {
		return Report{}, err
	}
	// Clamp targets to the live entity counts (a central policy
	// collapses to one cluster) and keep at most one crash per target:
	// overlapping outage windows on one node are undefined.
	seenSched := map[int]bool{}
	for _, c := range s.SchedCrashes {
		t := c.Target % e.Clusters()
		if seenSched[t] {
			continue
		}
		seenSched[t] = true
		if err := e.InjectSchedulerCrash(t, c.At, c.Repair); err != nil {
			return Report{}, err
		}
	}
	seenEst := map[int]bool{}
	for _, c := range s.EstCrashes {
		if len(e.Estimators) == 0 {
			break
		}
		t := c.Target % len(e.Estimators)
		if seenEst[t] {
			continue
		}
		seenEst[t] = true
		if err := e.InjectEstimatorCrash(t, c.At, c.Repair); err != nil {
			return Report{}, err
		}
	}
	for _, w := range s.LossWindows {
		if err := e.InjectLossWindow(w.Start, w.Duration); err != nil {
			return Report{}, err
		}
	}
	m := e.Metrics
	for _, c := range s.Corruptions {
		kind := c.Kind
		e.K.Schedule(c.At, func() { corrupt(m, kind) })
	}
	a, err := audit.Attach(e, audit.Config{Mode: audit.Record})
	if err != nil {
		return Report{}, err
	}
	sum := e.Run()
	r := Report{
		Summary:     sum,
		Violations:  a.ViolationStrings(),
		Checks:      a.Checks(),
		Fingerprint: a.Fingerprint(),
	}
	seen := map[string]bool{}
	for _, v := range a.Violations() {
		if !seen[v.Check] {
			seen[v.Check] = true
			r.Kinds = append(r.Kinds, v.Check)
		}
	}
	return r, nil
}

// corrupt falsifies one metric; each kind decisively violates a
// distinct invariant no matter where in the run it fires.
func corrupt(m *grid.Metrics, kind string) {
	switch kind {
	case CorruptNegativeOverhead:
		m.RMSOverhead = -1e6
	case CorruptPhantomComplete:
		m.JobsCompleted += m.JobsArrived + 1
	case CorruptPhantomRetry:
		m.MsgRetries += 7
	}
}

// HasKind reports whether the run violated the named check.
func (r Report) HasKind(kind string) bool {
	for _, k := range r.Kinds {
		if k == kind {
			return true
		}
	}
	return false
}
