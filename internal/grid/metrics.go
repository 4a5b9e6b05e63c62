package grid

import (
	"fmt"

	"rmscale/internal/sim"
	"rmscale/internal/stats"
)

// Metrics accumulates the paper's accounting terms during a run and
// derives the summary the scalability analysis consumes.
type Metrics struct {
	// UsefulWork is F: summed runtime of jobs that completed within
	// their benefit bound U_b.
	UsefulWork float64
	// RMSOverhead is G: total scheduler + estimator busy time spent
	// scheduling, receiving and processing updates.
	RMSOverhead float64
	// RPOverhead is H: job-control and data-management overhead at the
	// resource pool.
	RPOverhead float64
	// WastedWork is the runtime of jobs that executed but missed their
	// deadline; tracked separately (the paper folds neither into F).
	WastedWork float64

	JobsArrived int
	// JobsAdmitted counts jobs that actually entered scheduling: arrived
	// jobs minus those still held on precedence constraints at cutoff.
	// The auditor's conservation law is completed + lost <= admitted <=
	// arrived at every checkpoint.
	JobsAdmitted  int
	JobsCompleted int
	JobsSucceeded int
	JobsLost      int // destroyed by resource crashes

	ResponseTimes stats.Accumulator // completion - arrival, all completed jobs
	WaitTimes     stats.Accumulator // start - arrival

	// Message accounting by category.
	UpdatesSent       int
	UpdatesSuppressed int
	UpdatesLost       int
	DigestsSent       int
	PolicyMsgs        int
	JobTransfers      int // REMOTE jobs moved between clusters

	// Fault accounting; every field stays zero in a fault-free run.
	SchedulerCrashes  int
	EstimatorCrashes  int
	SchedulerDowntime float64 // summed scheduler repair windows
	EstimatorDowntime float64
	// MsgsLost counts protocol messages lost in transit (random loss,
	// link outage) or arriving at a crashed scheduler; MsgRetries the
	// retransmissions the timeout path issued; MsgsAbandoned the
	// messages that exhausted the retry budget.
	MsgsLost      int
	MsgRetries    int
	MsgsAbandoned int
	// Failovers counts jobs re-homed off a crashed scheduler to a live
	// peer; JobsParked the job deliveries that waited out a down
	// scheduler; StaleActions the dispatches/transfers dissolved because
	// a crash had already moved the job elsewhere.
	Failovers    int
	JobsParked   int
	StaleActions int
	// EstimatorFallbacks counts status updates routed directly to the
	// scheduler while the resource's estimator was down.
	EstimatorFallbacks int

	// SchedulerBusy[c] is the busy time of cluster c's scheduler, used
	// to locate bottlenecks. EstimatorBusy likewise.
	SchedulerBusy []float64
	EstimatorBusy []float64
	// MiddlewareBusy is the grid middleware queue's busy time (S-I
	// family only); its utilization is a scalability bottleneck
	// indicator.
	MiddlewareBusy float64
	// MaxSchedDelay is the worst backlog any scheduler's work queue
	// reached: the sharpest saturation signal, since averages dilute
	// transient overload over the drain window.
	MaxSchedDelay float64

	// AuditChecks counts invariant checkpoints an attached auditor ran;
	// AuditViolations holds its findings verbatim. Both stay zero/nil
	// without an auditor (see internal/audit).
	AuditChecks     int
	AuditViolations []string
}

// Summary condenses a run into the numbers the scalability metric and
// the figures need.
type Summary struct {
	F, G, H          float64
	Efficiency       float64
	Throughput       float64 // jobs completed per time unit
	MeanResponse     float64
	SuccessRate      float64 // succeeded / completed
	Jobs             int
	Wasted           float64
	MaxSchedulerUtil float64 // busiest RMS node busy fraction, saturation flag
	MaxSchedDelay    float64 // worst RMS work-queue backlog, saturation flag
	MiddlewareUtil   float64 // middleware queue busy fraction

	// Robustness accounting; all zero in a fault-free run.
	JobsLost  int     // destroyed by crashes or dropped after too many bounces
	Crashes   int     // scheduler + estimator crashes
	Downtime  float64 // summed RMS-node downtime
	MsgsLost  int     // protocol messages lost to faults
	Retries   int     // protocol retransmissions issued
	Failovers int     // jobs re-homed off a crashed scheduler

	// Runtime-audit accounting (all zero without an attached auditor).
	// Summary must stay comparable with ==, so it carries the violation
	// count and the first finding; the full list lives in
	// Metrics.AuditViolations.
	AuditChecks    int
	Violations     int
	FirstViolation string
}

// Summarize derives the summary over an observation window of the given
// length.
func (m *Metrics) Summarize(window sim.Time) Summary {
	s := Summary{
		F:      m.UsefulWork,
		G:      m.RMSOverhead,
		H:      m.RPOverhead,
		Jobs:   m.JobsArrived,
		Wasted: m.WastedWork,
	}
	total := s.F + s.G + s.H
	if total > 0 {
		s.Efficiency = s.F / total
	}
	if window > 0 {
		s.Throughput = float64(m.JobsCompleted) / window
	}
	s.MeanResponse = m.ResponseTimes.Mean()
	if m.JobsCompleted > 0 {
		s.SuccessRate = float64(m.JobsSucceeded) / float64(m.JobsCompleted)
	}
	if window > 0 {
		max := 0.0
		for _, b := range m.SchedulerBusy {
			if u := b / float64(window); u > max {
				max = u
			}
		}
		for _, b := range m.EstimatorBusy {
			if u := b / float64(window); u > max {
				max = u
			}
		}
		s.MaxSchedulerUtil = max
		s.MiddlewareUtil = m.MiddlewareBusy / float64(window)
	}
	s.MaxSchedDelay = m.MaxSchedDelay
	s.JobsLost = m.JobsLost
	s.Crashes = m.SchedulerCrashes + m.EstimatorCrashes
	s.Downtime = m.SchedulerDowntime + m.EstimatorDowntime
	s.MsgsLost = m.MsgsLost
	s.Retries = m.MsgRetries
	s.Failovers = m.Failovers
	s.AuditChecks = m.AuditChecks
	s.Violations = len(m.AuditViolations)
	if s.Violations > 0 {
		s.FirstViolation = m.AuditViolations[0]
	}
	return s
}

// String renders the summary compactly for logs and CLIs. The fault
// block only appears when something actually failed, so fault-free
// output is unchanged from before the fault layer existed.
func (s Summary) String() string {
	out := fmt.Sprintf(
		"F=%.0f G=%.0f H=%.0f E=%.3f thpt=%.4f resp=%.1f success=%.3f jobs=%d maxRMSutil=%.2f maxRMSdelay=%.1f mwUtil=%.2f",
		s.F, s.G, s.H, s.Efficiency, s.Throughput, s.MeanResponse, s.SuccessRate, s.Jobs,
		s.MaxSchedulerUtil, s.MaxSchedDelay, s.MiddlewareUtil)
	if s.JobsLost > 0 || s.Crashes > 0 || s.MsgsLost > 0 || s.Retries > 0 || s.Failovers > 0 {
		out += fmt.Sprintf(" | faults: jobsLost=%d crashes=%d downtime=%.0f msgsLost=%d retries=%d failovers=%d",
			s.JobsLost, s.Crashes, s.Downtime, s.MsgsLost, s.Retries, s.Failovers)
	}
	if s.Violations > 0 {
		out += fmt.Sprintf(" | AUDIT: %d violation(s), first: %s", s.Violations, s.FirstViolation)
	}
	return out
}

// chargeScheduler adds cost to G and busy wall time (cost divided by
// the node speed) to cluster c's scheduler.
func (m *Metrics) chargeScheduler(c int, cost, busy float64) {
	m.RMSOverhead += cost
	if c >= 0 && c < len(m.SchedulerBusy) {
		m.SchedulerBusy[c] += busy
	}
}

// chargeEstimator adds cost to G and busy wall time to estimator e.
func (m *Metrics) chargeEstimator(e int, cost, busy float64) {
	m.RMSOverhead += cost
	if e >= 0 && e < len(m.EstimatorBusy) {
		m.EstimatorBusy[e] += busy
	}
}
