// Package audit is a runtime invariant auditor for the grid engine: it
// rides the simulation as a periodic checkpoint event plus a final
// drain hook and verifies the conservation laws the paper's accounting
// identity E = F/(F+G+H) depends on. Every check is a pure read of
// engine state — an attached auditor draws no random numbers, mutates
// no model state and schedules nothing the model can observe, so a
// fault-free run with auditing enabled is byte-identical to one
// without.
//
// Invariants checked at every checkpoint and at drain:
//
//   - virtual time is monotonic and within the run window;
//   - the kernel is making progress (no stall, no event overflow);
//   - the accounting terms F, G, H and wasted work are finite,
//     non-negative and non-decreasing;
//   - job conservation: completed + lost <= admitted <= arrived, with
//     every counter non-decreasing and succeeded <= completed;
//   - job census: jobs resident at resources plus jobs parked on down
//     schedulers never exceed the jobs in flight;
//   - scheduler and estimator work queues are bounded;
//   - retry/failover counters are consistent with message-loss
//     counters (lost = retried + abandoned), and with faults neither
//     configured nor scripted every fault counter is exactly zero.
//
// Two modes: Off (never attached) and Record (violations accumulate
// into Metrics/Summary while the run finishes). Every caller — the
// experiments, the chaos sweep, the rmscaled executor and the
// benchmark — records; a violation is a finding to replay and shrink,
// not a reason to stop a run.
package audit

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"rmscale/internal/grid"
	"rmscale/internal/sim"
)

// Mode selects how an attached auditor enforces its invariants.
type Mode int

const (
	// Off disables auditing entirely; Attach installs nothing.
	Off Mode = iota
	// Record accumulates violations into Metrics.AuditViolations (and
	// the Summary's count) while letting the run finish.
	Record
)

// String names the mode for flags and logs.
func (m Mode) String() string {
	switch m {
	case Off:
		return "off"
	case Record:
		return "record"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Check names identify which invariant a violation belongs to; the
// shrinker preserves the first-failing check kind while minimizing.
const (
	CheckTime          = "monotonic-time"
	CheckProgress      = "progress"
	CheckAccounting    = "accounting"
	CheckConservation  = "job-conservation"
	CheckCensus        = "job-census"
	CheckQueueBound    = "queue-bound"
	CheckFaultCounters = "fault-counters"
	CheckDrain         = "drain"
)

// Config parameterizes an auditor.
type Config struct {
	Mode Mode
}

// Checkpoints run every window/checkpointsPerWindow time units, where
// window is the run's horizon plus drain. queueBoundWindows × window is
// the largest tolerated scheduler/estimator work backlog, generous
// enough that a legitimately saturated configuration (the tuner probes
// many) never trips it while a runaway feedback loop still does. At
// most maxViolations violations are recorded per run.
const (
	checkpointsPerWindow = 64
	queueBoundWindows    = 64
	maxViolations        = 64
)

// Violation is one invariant breach observed at a checkpoint.
type Violation struct {
	Time   sim.Time
	Check  string
	Detail string
}

// String renders the violation the way it lands in Metrics.
func (v Violation) String() string {
	return fmt.Sprintf("t=%.1f %s: %s", v.Time, v.Check, v.Detail)
}

// counters is the monotone slice of Metrics an auditor snapshots at
// each checkpoint to verify non-decreasing accumulation.
type counters struct {
	f, g, h, wasted              float64
	admitted, completed, lost    int
	succeeded                    int
	msgsLost, retries, abandoned int
	schedCrashes, estCrashes     int
	failovers, parked, stale     int
	updatesSent, policyMsgs      int
}

func snapshot(m *grid.Metrics) counters {
	return counters{
		f: m.UsefulWork, g: m.RMSOverhead, h: m.RPOverhead, wasted: m.WastedWork,
		admitted: m.JobsAdmitted, completed: m.JobsCompleted, lost: m.JobsLost,
		succeeded: m.JobsSucceeded,
		msgsLost:  m.MsgsLost, retries: m.MsgRetries, abandoned: m.MsgsAbandoned,
		schedCrashes: m.SchedulerCrashes, estCrashes: m.EstimatorCrashes,
		failovers: m.Failovers, parked: m.JobsParked, stale: m.StaleActions,
		updatesSent: m.UpdatesSent, policyMsgs: m.PolicyMsgs,
	}
}

// Auditor holds the check state for one engine run. Obtain one through
// Attach; the zero value is inert.
type Auditor struct {
	e      *grid.Engine
	window sim.Time

	checks     int
	violations []Violation
	truncated  int
	lastNow    sim.Time
	prev       counters
	finished   bool
}

// Attach wires an auditor into the engine: a periodic checkpoint event
// plus the engine's AuditHook for the final drain check. It must be
// called after NewWith/New (and any scripted fault injection setup)
// and before Run. Mode Off attaches nothing and returns an inert
// auditor. Attach fails if the run already started or another auditor
// claimed the hook.
func Attach(e *grid.Engine, cfg Config) (*Auditor, error) {
	if e == nil {
		return nil, fmt.Errorf("audit: nil engine")
	}
	window := e.Cfg.Horizon + e.Cfg.Drain
	a := &Auditor{e: e, window: window}
	if cfg.Mode == Off {
		return a, nil
	}
	if e.K.Processed() != 0 {
		return nil, fmt.Errorf("audit: attach after the simulation started")
	}
	if e.AuditHook != nil {
		return nil, fmt.Errorf("audit: engine already has an audit hook")
	}
	e.AuditHook = a.finish
	sim.NewTicker(e.K, window/checkpointsPerWindow, a.checkpoint)
	return a, nil
}

// Run is one audited engine run: it attaches a Record-mode auditor,
// runs the engine and returns the summary with the audit's outcome. The
// drain pass reports a tripped stall watchdog or an exceeded event
// budget as a progress violation, so a nil error means the run finished
// within its budget and kept every invariant.
func Run(e *grid.Engine) (grid.Summary, error) {
	a, err := Attach(e, Config{Mode: Record})
	if err != nil {
		return grid.Summary{}, err
	}
	sum := e.Run()
	return sum, a.Err()
}

// violationf records one violation (subject to the maxViolations cap).
func (a *Auditor) violationf(check, format string, args ...any) {
	if len(a.violations) >= maxViolations {
		a.truncated++
		return
	}
	a.violations = append(a.violations, Violation{
		Time:   a.e.K.Now(),
		Check:  check,
		Detail: fmt.Sprintf(format, args...),
	})
}

// checkpoint runs every invariant against the current engine state.
func (a *Auditor) checkpoint() {
	if a.finished {
		return
	}
	a.checks++
	a.checkTime()
	a.checkProgress()
	a.checkAccounting()
	a.checkConservation()
	a.checkCensus()
	a.checkQueueBound()
	a.checkFaultCounters()
	a.prev = snapshot(a.e.Metrics)
	a.publish()
}

// finish is the engine's AuditHook: the drain-time pass after the
// event loop ends and before the summary is derived.
func (a *Auditor) finish() {
	if a.finished {
		return
	}
	a.finished = true
	a.checks++
	a.checkProgress()
	a.checkAccounting()
	a.checkConservation()
	a.checkCensus()
	a.checkFaultCounters()
	a.checkDrain()
	if a.truncated > 0 && len(a.violations) == maxViolations {
		a.violations[len(a.violations)-1].Detail += fmt.Sprintf(" (+%d more suppressed)", a.truncated)
	}
	a.publish()
}

func (a *Auditor) checkTime() {
	now := a.e.K.Now()
	if now < a.lastNow {
		a.violationf(CheckTime, "clock moved backwards: %v -> %v", a.lastNow, now)
	}
	if now > a.window {
		a.violationf(CheckTime, "clock %v beyond run window %v", now, a.window)
	}
	a.lastNow = now
}

func (a *Auditor) checkProgress() {
	if err := a.e.K.Err(); err != nil {
		a.violationf(CheckProgress, "%v", err)
	}
}

func (a *Auditor) checkAccounting() {
	m := a.e.Metrics
	cur := snapshot(m)
	terms := []struct {
		name      string
		val, prev float64
	}{
		{"F", cur.f, a.prev.f},
		{"G", cur.g, a.prev.g},
		{"H", cur.h, a.prev.h},
		{"wasted", cur.wasted, a.prev.wasted},
	}
	for _, t := range terms {
		if math.IsNaN(t.val) || math.IsInf(t.val, 0) {
			a.violationf(CheckAccounting, "%s is not finite: %v", t.name, t.val)
			continue
		}
		if t.val < 0 {
			a.violationf(CheckAccounting, "%s is negative: %v", t.name, t.val)
		}
		if t.val < t.prev {
			a.violationf(CheckAccounting, "%s decreased: %v -> %v", t.name, t.prev, t.val)
		}
	}
}

func (a *Auditor) checkConservation() {
	m := a.e.Metrics
	if m.JobsCompleted+m.JobsLost > m.JobsAdmitted {
		a.violationf(CheckConservation, "completed %d + lost %d exceeds admitted %d",
			m.JobsCompleted, m.JobsLost, m.JobsAdmitted)
	}
	if m.JobsAdmitted > m.JobsArrived {
		a.violationf(CheckConservation, "admitted %d exceeds arrived %d", m.JobsAdmitted, m.JobsArrived)
	}
	if m.JobsSucceeded > m.JobsCompleted {
		a.violationf(CheckConservation, "succeeded %d exceeds completed %d", m.JobsSucceeded, m.JobsCompleted)
	}
	ints := []struct {
		name      string
		val, prev int
	}{
		{"admitted", m.JobsAdmitted, a.prev.admitted},
		{"completed", m.JobsCompleted, a.prev.completed},
		{"lost", m.JobsLost, a.prev.lost},
		{"succeeded", m.JobsSucceeded, a.prev.succeeded},
		{"updatesSent", m.UpdatesSent, a.prev.updatesSent},
		{"policyMsgs", m.PolicyMsgs, a.prev.policyMsgs},
	}
	for _, c := range ints {
		if c.val < c.prev {
			a.violationf(CheckConservation, "counter %s decreased: %d -> %d", c.name, c.prev, c.val)
		}
	}
}

func (a *Auditor) checkCensus() {
	m := a.e.Metrics
	inflight := m.JobsAdmitted - m.JobsCompleted - m.JobsLost
	resident := 0
	for _, r := range a.e.Resources {
		resident += int(r.Load())
	}
	parked := 0
	for _, s := range a.e.Schedulers {
		parked += s.ParkedCount()
	}
	if resident+parked > inflight {
		a.violationf(CheckCensus, "%d jobs at resources + %d parked exceed %d in flight",
			resident, parked, inflight)
	}
}

func (a *Auditor) checkQueueBound() {
	bound := queueBoundWindows * a.window
	for _, s := range a.e.Schedulers {
		if d := s.QueueDelay(); d > bound {
			a.violationf(CheckQueueBound, "scheduler %d backlog %v exceeds bound %v",
				s.Cluster(), d, bound)
		}
	}
	for _, est := range a.e.Estimators {
		if d := est.QueueDelay(); d > bound {
			a.violationf(CheckQueueBound, "estimator %d backlog %v exceeds bound %v",
				est.ID(), d, bound)
		}
	}
}

func (a *Auditor) checkFaultCounters() {
	m := a.e.Metrics
	neg := []struct {
		name string
		val  int
	}{
		{"msgsLost", m.MsgsLost}, {"retries", m.MsgRetries}, {"abandoned", m.MsgsAbandoned},
		{"schedulerCrashes", m.SchedulerCrashes}, {"estimatorCrashes", m.EstimatorCrashes},
		{"failovers", m.Failovers}, {"jobsParked", m.JobsParked}, {"staleActions", m.StaleActions},
		{"estimatorFallbacks", m.EstimatorFallbacks}, {"updatesLost", m.UpdatesLost},
	}
	for _, c := range neg {
		if c.val < 0 {
			a.violationf(CheckFaultCounters, "%s is negative: %d", c.name, c.val)
		}
	}
	// A lost protocol message is always either retried or abandoned in
	// the same event, so the identity holds at every event boundary.
	if m.MsgsLost != m.MsgRetries+m.MsgsAbandoned {
		a.violationf(CheckFaultCounters, "msgsLost %d != retries %d + abandoned %d",
			m.MsgsLost, m.MsgRetries, m.MsgsAbandoned)
	}
	if !a.e.Cfg.Faults.Enabled() && !a.e.HasFaultScript() {
		for _, c := range neg {
			if c.val > 0 {
				a.violationf(CheckFaultCounters, "fault-free run but %s = %d", c.name, c.val)
			}
		}
	}
}

// checkDrain verifies the end-of-run identities: every arrived job was
// either admitted to scheduling or is still held on an unsatisfied
// precedence constraint (a release past the cutoff leaves a gap, hence
// the inequality).
func (a *Auditor) checkDrain() {
	m := a.e.Metrics
	if m.JobsAdmitted+a.e.HeldJobs() > m.JobsArrived {
		a.violationf(CheckDrain, "admitted %d + held %d exceeds arrived %d",
			m.JobsAdmitted, a.e.HeldJobs(), m.JobsArrived)
	}
	if a.e.Unfinished() < 0 {
		a.violationf(CheckDrain, "negative unfinished count %d", a.e.Unfinished())
	}
}

// publish mirrors the audit state into the engine metrics so the
// Summary carries it.
func (a *Auditor) publish() {
	a.e.Metrics.AuditChecks = a.checks
	if len(a.violations) == 0 {
		a.e.Metrics.AuditViolations = nil
		return
	}
	out := make([]string, len(a.violations))
	for i, v := range a.violations {
		out[i] = v.String()
	}
	a.e.Metrics.AuditViolations = out
}

// Checks reports how many checkpoints ran.
func (a *Auditor) Checks() int { return a.checks }

// Violations returns the recorded violations.
func (a *Auditor) Violations() []Violation { return a.violations }

// ViolationStrings returns the violations rendered as they appear in
// Metrics.AuditViolations.
func (a *Auditor) ViolationStrings() []string {
	out := make([]string, len(a.violations))
	for i, v := range a.violations {
		out[i] = v.String()
	}
	return out
}

// Err summarizes the audit outcome as an error, nil when clean.
func (a *Auditor) Err() error {
	if len(a.violations) == 0 {
		return nil
	}
	return fmt.Errorf("audit: %d invariant violation(s), first: %s", len(a.violations), a.violations[0])
}

// Fingerprint hashes the violation list into a short stable id; two
// deterministic replays of the same schedule must produce the same
// fingerprint. A clean run fingerprints to "".
func (a *Auditor) Fingerprint() string { return Fingerprint(a.ViolationStrings()) }

// Fingerprint hashes a violation string list into a short stable id.
func Fingerprint(violations []string) string {
	if len(violations) == 0 {
		return ""
	}
	h := sha256.New()
	for _, v := range violations {
		_, _ = h.Write([]byte(v))
		_, _ = h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
