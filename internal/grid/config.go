// Package grid simulates the paper's managed distributed system: a
// resource pool (the managee) partitioned into non-overlapping clusters,
// coordinated by schedulers and optional status estimators (the manager,
// i.e. the RMS), connected by a routed network. It accounts useful work
// F, RMS overhead G and RP overhead H exactly as the paper defines them:
// G is the overall time spent by schedulers (and estimators) scheduling,
// receiving, and processing updates; F is the useful work delivered to
// clients (runtime of jobs that complete within their benefit bound);
// H is the job-control overhead of the resource pool.
package grid

import (
	"fmt"
	"math"

	"rmscale/internal/sim"
	"rmscale/internal/topology"
	"rmscale/internal/workload"
)

// CostModel fixes the CPU cost, in simulated time units of RMS-node
// work, of each management operation. These constants calibrate the
// absolute magnitude of G; the scalability metric normalizes them away,
// but their ratios determine which protocol is heavier.
type CostModel struct {
	// UpdateBatchBase is the fixed cost of processing one status
	// update batch (a digest, or a lone update).
	UpdateBatchBase float64
	// UpdatePer is the marginal cost per update inside a batch.
	UpdatePer float64
	// DecisionBase is the fixed cost of one scheduling decision.
	DecisionBase float64
	// DecisionPer is the marginal cost per candidate scanned during a
	// decision (the term that makes a naive central scan expensive).
	DecisionPer float64
	// Message is the cost of sending or processing one protocol
	// message (poll, reply, bid, reservation, advertisement, ...).
	Message float64
	// EstimatorPer is the estimator-side cost per update relayed.
	EstimatorPer float64
	// TriggerCheck is the cost a push-style model (AUCTION, Sy-I) pays
	// to evaluate its trigger condition against each batch of fresh
	// status information — the PUSH side of "both PUSH and PULL
	// techniques for status estimations" that makes those models
	// sensitive to the number of status estimators (Figure 4).
	TriggerCheck float64
	// JobControl is the per-job RP overhead (dispatch, start, cleanup)
	// accounted into H.
	JobControl float64
	// SchedulerSpeed is how many cost units a scheduler or estimator
	// retires per simulated time unit; it bounds RMS throughput and is
	// what saturates a central scheduler at scale.
	SchedulerSpeed float64
}

// DefaultCosts returns the calibration used by the paper reproduction.
// Costs are in simulated time units of RMS-node work with unit speed, so
// one cost unit is one time unit of scheduler busy time; the constants
// are chosen so a stressed base configuration lands in the paper's
// efficiency band E in [0.38, 0.42] once the enablers are tuned, and so
// a central scheduler saturates at the scale factors the paper reports.
func DefaultCosts() CostModel {
	return CostModel{
		UpdateBatchBase: 0.005,
		UpdatePer:       0.05,
		DecisionBase:    0.1,
		DecisionPer:     0.001,
		Message:         0.12,
		EstimatorPer:    0.01,
		TriggerCheck:    0.04,
		// JobControl models the grid-era job control and data staging
		// overhead per job — the paper's dominant H component. It is
		// calibrated against the ~524-unit mean job runtime so that
		// E = F/(F+G+H) has a ceiling just above 0.42: the paper's
		// efficiency band [0.38, 0.42] is then exactly the region
		// where the RMS keeps nearly all work useful, which couples
		// the band to information freshness without degenerating.
		JobControl:     700,
		SchedulerSpeed: 4,
	}
}

// Validate reports the first nonsensical cost.
func (c CostModel) Validate() error {
	if err := allFinite([]param{
		{"UpdateBatchBase", c.UpdateBatchBase},
		{"UpdatePer", c.UpdatePer},
		{"DecisionBase", c.DecisionBase},
		{"DecisionPer", c.DecisionPer},
		{"Message", c.Message},
		{"EstimatorPer", c.EstimatorPer},
		{"TriggerCheck", c.TriggerCheck},
		{"JobControl", c.JobControl},
		{"SchedulerSpeed", c.SchedulerSpeed},
	}); err != nil {
		return err
	}
	switch {
	case c.UpdateBatchBase < 0 || c.UpdatePer < 0 || c.DecisionBase < 0 ||
		c.DecisionPer < 0 || c.Message < 0 || c.EstimatorPer < 0 ||
		c.TriggerCheck < 0 || c.JobControl < 0:
		return fmt.Errorf("grid: negative cost in %+v", c)
	case c.SchedulerSpeed <= 0:
		return fmt.Errorf("grid: SchedulerSpeed must be positive, got %v", c.SchedulerSpeed)
	}
	return nil
}

// Enablers are the paper's "scaling enablers" y(k): the tunable knobs
// the simulated annealing search adjusts at each scale factor to keep
// efficiency constant at minimum overhead (Tables 2-5).
type Enablers struct {
	// UpdateInterval is the status update period tau.
	UpdateInterval float64
	// NeighborhoodSize is how many remote schedulers each scheduler
	// keeps in its candidate set (>= Lp for polling to work).
	NeighborhoodSize int
	// LinkDelayScale multiplies every network path latency.
	LinkDelayScale float64
	// VolunteerInterval is the period of the push-side checks
	// (reservations, auctions, R-I advertisements); Table 5 calls it
	// the "interval for resource volunteering".
	VolunteerInterval float64
}

// DefaultEnablers returns a sane starting point for tuning.
func DefaultEnablers() Enablers {
	return Enablers{
		UpdateInterval:    40,
		NeighborhoodSize:  8,
		LinkDelayScale:    1,
		VolunteerInterval: 80,
	}
}

// Validate reports the first out-of-range enabler.
func (e Enablers) Validate() error {
	if err := allFinite([]param{
		{"UpdateInterval", e.UpdateInterval},
		{"LinkDelayScale", e.LinkDelayScale},
		{"VolunteerInterval", e.VolunteerInterval},
	}); err != nil {
		return err
	}
	switch {
	case e.UpdateInterval <= 0:
		return fmt.Errorf("grid: UpdateInterval must be positive, got %v", e.UpdateInterval)
	case e.NeighborhoodSize < 1:
		return fmt.Errorf("grid: NeighborhoodSize must be >= 1, got %d", e.NeighborhoodSize)
	case e.LinkDelayScale <= 0:
		return fmt.Errorf("grid: LinkDelayScale must be positive, got %v", e.LinkDelayScale)
	case e.VolunteerInterval <= 0:
		return fmt.Errorf("grid: VolunteerInterval must be positive, got %v", e.VolunteerInterval)
	}
	return nil
}

// Protocol fixes the non-tunable protocol constants shared by the RMS
// models (Table 1 of the paper, plus the model-specific constants the
// paper states inline).
type Protocol struct {
	// Lp is the number of remote schedulers probed/polled (the Case 4
	// scaling variable).
	Lp int
	// ThresholdLoad is T_l, the threshold load at a scheduler (0.5).
	ThresholdLoad float64
	// RUSDelta is the R-I underutilization threshold delta.
	RUSDelta float64
	// Psi is the S-I turnaround-time tie tolerance.
	Psi float64
	// SuppressDelta is the minimum load change (in queue-length units)
	// for a periodic update to be sent rather than suppressed.
	SuppressDelta float64
	// BidWindow is how long an auctioning scheduler accumulates bids.
	BidWindow float64
	// ReservationTTL is how long a reservation stays valid.
	ReservationTTL float64
	// MiddlewareTime is the service time of the grid middleware queue
	// the S-I/R-I/Sy-I models communicate through.
	MiddlewareTime float64
	// EstimatorInterval is the fixed cadence at which status
	// estimators broadcast digests to the scheduling decision makers.
	// It is infrastructure cadence, not a tunable enabler: scaling the
	// estimator layer multiplies this traffic no matter how the RMS is
	// tuned, which is the Figure 4 effect.
	EstimatorInterval float64
}

// DefaultProtocol returns the paper's constants where stated and
// reasonable values where the paper is silent.
func DefaultProtocol() Protocol {
	return Protocol{
		Lp:                3,
		ThresholdLoad:     0.5,
		RUSDelta:          0.25,
		Psi:               50,
		SuppressDelta:     0.5,
		BidWindow:         10,
		ReservationTTL:    400,
		MiddlewareTime:    0.5,
		EstimatorInterval: 20,
	}
}

// Validate reports the first out-of-range protocol constant.
func (p Protocol) Validate() error {
	if err := allFinite([]param{
		{"ThresholdLoad", p.ThresholdLoad},
		{"RUSDelta", p.RUSDelta},
		{"Psi", p.Psi},
		{"SuppressDelta", p.SuppressDelta},
		{"BidWindow", p.BidWindow},
		{"ReservationTTL", p.ReservationTTL},
		{"MiddlewareTime", p.MiddlewareTime},
		{"EstimatorInterval", p.EstimatorInterval},
	}); err != nil {
		return err
	}
	switch {
	case p.Lp < 1:
		return fmt.Errorf("grid: Lp must be >= 1, got %d", p.Lp)
	case p.ThresholdLoad <= 0:
		return fmt.Errorf("grid: ThresholdLoad must be positive, got %v", p.ThresholdLoad)
	case p.RUSDelta < 0:
		return fmt.Errorf("grid: negative RUSDelta %v", p.RUSDelta)
	case p.Psi < 0:
		return fmt.Errorf("grid: negative Psi %v", p.Psi)
	case p.SuppressDelta < 0:
		return fmt.Errorf("grid: negative SuppressDelta %v", p.SuppressDelta)
	case p.BidWindow <= 0:
		return fmt.Errorf("grid: BidWindow must be positive, got %v", p.BidWindow)
	case p.ReservationTTL <= 0:
		return fmt.Errorf("grid: ReservationTTL must be positive, got %v", p.ReservationTTL)
	case p.MiddlewareTime < 0:
		return fmt.Errorf("grid: negative MiddlewareTime %v", p.MiddlewareTime)
	case p.EstimatorInterval <= 0:
		return fmt.Errorf("grid: EstimatorInterval must be positive, got %v", p.EstimatorInterval)
	}
	return nil
}

// FaultModel injects failures for robustness studies; the zero value
// disables all of it (the paper's experiments run fault-free). Every
// fault process draws from its own dedicated named RNG stream, so a
// fault-free configuration is byte-identical to a run built before the
// fault layer existed, and enabling one fault class never perturbs the
// workload, topology or any other fault class.
type FaultModel struct {
	// ResourceMTBF is the mean time between resource crashes; 0
	// disables crashes. Queued jobs on a crashed resource are lost.
	ResourceMTBF float64
	// RepairTime is how long a crashed resource stays down.
	RepairTime float64
	// UpdateLossProb drops each status update/digest message with this
	// probability (protocol messages are governed by MsgLossProb).
	UpdateLossProb float64

	// SchedulerMTBF is the mean time between scheduler crashes; 0
	// disables them. A crashed scheduler loses its queued CPU work and
	// the jobs it holds are re-homed to the first live cluster in its
	// peer list (or parked until repair when no peer is alive).
	SchedulerMTBF float64
	// SchedulerRepair is how long a crashed scheduler stays down.
	SchedulerRepair float64
	// EstimatorMTBF is the mean time between estimator crashes; 0
	// disables them. While an estimator is down its resources fall back
	// to direct scheduler updates.
	EstimatorMTBF float64
	// EstimatorRepair is how long a crashed estimator stays down.
	EstimatorRepair float64
	// MsgLossProb drops each protocol message (poll, bid, reservation,
	// job transfer, ...) with this probability.
	MsgLossProb float64
	// LinkOutageMTBF is the mean time between access-link outages per
	// grid endpoint; 0 disables them. During an outage window every
	// message to or from the severed endpoint is lost.
	LinkOutageMTBF float64
	// LinkOutageDuration is how long each outage window lasts.
	LinkOutageDuration float64
	// RetryTimeout is the sender-side timeout before a lost protocol
	// request is retransmitted; it doubles on each attempt (binary
	// backoff). Zero retransmits immediately.
	RetryTimeout float64
	// MaxRetries bounds retransmissions per protocol message; 0
	// disables the retry path entirely (a lost message stays lost).
	MaxRetries int
}

// param is one named float parameter, for allFinite.
type param struct {
	name string
	val  float64
}

// allFinite reports the first parameter that is not a usable value
// (NaN or an infinity). Validation rejects non-finite values
// explicitly: comparisons like f.ResourceMTBF < 0 are false for NaN,
// which would otherwise let NaN slip through range checks.
func allFinite(ps []param) error {
	for _, p := range ps {
		if math.IsNaN(p.val) || math.IsInf(p.val, 0) {
			return fmt.Errorf("grid: %s must be finite, got %v", p.name, p.val)
		}
	}
	return nil
}

// Enabled reports whether any fault process is active.
func (f FaultModel) Enabled() bool {
	return f.ResourceMTBF > 0 || f.UpdateLossProb > 0 || f.protocolFaults()
}

// protocolFaults reports whether any fault class that can destroy a
// protocol message or an RMS node is active — the condition under which
// the engine arms its timeout/retry and failover machinery.
func (f FaultModel) protocolFaults() bool {
	return f.SchedulerMTBF > 0 || f.EstimatorMTBF > 0 ||
		f.MsgLossProb > 0 || f.LinkOutageMTBF > 0
}

// Validate reports the first nonsensical fault parameter.
func (f FaultModel) Validate() error {
	if err := allFinite([]param{
		{"ResourceMTBF", f.ResourceMTBF},
		{"RepairTime", f.RepairTime},
		{"UpdateLossProb", f.UpdateLossProb},
		{"SchedulerMTBF", f.SchedulerMTBF},
		{"SchedulerRepair", f.SchedulerRepair},
		{"EstimatorMTBF", f.EstimatorMTBF},
		{"EstimatorRepair", f.EstimatorRepair},
		{"MsgLossProb", f.MsgLossProb},
		{"LinkOutageMTBF", f.LinkOutageMTBF},
		{"LinkOutageDuration", f.LinkOutageDuration},
		{"RetryTimeout", f.RetryTimeout},
	}); err != nil {
		return err
	}
	switch {
	case f.ResourceMTBF < 0:
		return fmt.Errorf("grid: negative ResourceMTBF %v", f.ResourceMTBF)
	case f.ResourceMTBF > 0 && f.RepairTime <= 0:
		return fmt.Errorf("grid: crashes enabled but RepairTime %v", f.RepairTime)
	case f.UpdateLossProb < 0 || f.UpdateLossProb >= 1:
		return fmt.Errorf("grid: UpdateLossProb %v outside [0,1)", f.UpdateLossProb)
	case f.SchedulerMTBF < 0:
		return fmt.Errorf("grid: negative SchedulerMTBF %v", f.SchedulerMTBF)
	case f.SchedulerMTBF > 0 && f.SchedulerRepair <= 0:
		return fmt.Errorf("grid: scheduler crashes enabled but SchedulerRepair %v", f.SchedulerRepair)
	case f.EstimatorMTBF < 0:
		return fmt.Errorf("grid: negative EstimatorMTBF %v", f.EstimatorMTBF)
	case f.EstimatorMTBF > 0 && f.EstimatorRepair <= 0:
		return fmt.Errorf("grid: estimator crashes enabled but EstimatorRepair %v", f.EstimatorRepair)
	case f.MsgLossProb < 0 || f.MsgLossProb >= 1:
		return fmt.Errorf("grid: MsgLossProb %v outside [0,1)", f.MsgLossProb)
	case f.LinkOutageMTBF < 0:
		return fmt.Errorf("grid: negative LinkOutageMTBF %v", f.LinkOutageMTBF)
	case f.LinkOutageMTBF > 0 && f.LinkOutageDuration <= 0:
		return fmt.Errorf("grid: link outages enabled but LinkOutageDuration %v", f.LinkOutageDuration)
	case f.RetryTimeout < 0:
		return fmt.Errorf("grid: negative RetryTimeout %v", f.RetryTimeout)
	case f.MaxRetries < 0:
		return fmt.Errorf("grid: negative MaxRetries %d", f.MaxRetries)
	case f.MaxRetries > 16:
		return fmt.Errorf("grid: MaxRetries %d above the backoff bound 16", f.MaxRetries)
	}
	return nil
}

// Config describes one complete simulation run.
type Config struct {
	Seed int64
	// Spec is the grid layout (clusters, cluster size, estimators).
	Spec topology.GridSpec
	// TopoNodes is the total topology size including pure routers; it
	// must be at least Spec.Nodes(). Zero means "exactly Spec.Nodes()
	// plus 20% routers".
	TopoNodes int
	// TopoM is the preferential-attachment edge count (default 2).
	TopoM int
	// Links parameterizes link latency/bandwidth generation.
	Links topology.LinkParams
	// ServiceRate is the resource service rate mu (Case 2's scaling
	// variable): a job of runtime r occupies a resource r/mu.
	ServiceRate float64
	// Workload generates the job stream.
	Workload workload.Params
	// Horizon is the simulated duration; jobs still in flight at the
	// horizon are accounted as unfinished.
	Horizon sim.Time
	// Drain lets in-flight jobs finish for this long after the last
	// arrival before the run is cut off.
	Drain sim.Time

	Enablers Enablers
	Protocol Protocol
	Costs    CostModel
	Faults   FaultModel

	// MsgBytes and UpdateBytes size protocol and update messages for
	// the bandwidth term of the delay model. JobBytes sizes a job
	// transfer.
	MsgBytes, UpdateBytes, JobBytes float64

	// MaxEvents guards against runaway runs; zero means the engine
	// default of 50 million events.
	MaxEvents uint64
	// StallEvents arms the kernel's no-progress watchdog: a run aborts
	// if this many consecutive events execute without the clock
	// advancing. Zero means the engine default of one million.
	StallEvents uint64
}

// DefaultConfig returns the base (scale k=1) configuration of the Case 1
// experiment family: a stressed grid whose tuned efficiency lands in the
// paper's band.
func DefaultConfig() Config {
	wl := workload.DefaultParams()
	wl.Clusters = 8
	wl.ArrivalRate = 0.1374 // ~0.9 utilization on 80 unit-rate resources
	wl.Horizon = 4000
	return Config{
		Seed:        1,
		Spec:        topology.GridSpec{Clusters: 8, ClusterSize: 10},
		TopoM:       2,
		Links:       topology.DefaultLinkParams(),
		ServiceRate: 1,
		Workload:    wl,
		Horizon:     4000,
		Drain:       1500,
		Enablers:    DefaultEnablers(),
		Protocol:    DefaultProtocol(),
		Costs:       DefaultCosts(),
		MsgBytes:    1,
		UpdateBytes: 1,
		JobBytes:    10,
	}
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	if err := c.Spec.Validate(); err != nil {
		return err
	}
	if c.TopoNodes != 0 && c.TopoNodes < c.Spec.Nodes() {
		return fmt.Errorf("grid: TopoNodes %d below spec minimum %d", c.TopoNodes, c.Spec.Nodes())
	}
	if err := c.Links.Validate(); err != nil {
		return err
	}
	if err := allFinite([]param{
		{"ServiceRate", c.ServiceRate},
		{"Horizon", c.Horizon},
		{"Drain", c.Drain},
		{"MsgBytes", c.MsgBytes},
		{"UpdateBytes", c.UpdateBytes},
		{"JobBytes", c.JobBytes},
	}); err != nil {
		return err
	}
	if c.ServiceRate <= 0 {
		return fmt.Errorf("grid: ServiceRate must be positive, got %v", c.ServiceRate)
	}
	if c.Horizon <= 0 {
		return fmt.Errorf("grid: Horizon must be positive, got %v", c.Horizon)
	}
	if c.Drain < 0 {
		return fmt.Errorf("grid: negative Drain %v", c.Drain)
	}
	if c.Workload.Clusters != c.Spec.Clusters {
		return fmt.Errorf("grid: workload spans %d clusters, grid has %d", c.Workload.Clusters, c.Spec.Clusters)
	}
	if c.MsgBytes < 0 || c.UpdateBytes < 0 || c.JobBytes < 0 {
		return fmt.Errorf("grid: negative message sizes")
	}
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	if err := c.Enablers.Validate(); err != nil {
		return err
	}
	if err := c.Protocol.Validate(); err != nil {
		return err
	}
	if err := c.Costs.Validate(); err != nil {
		return err
	}
	return c.Faults.Validate()
}
