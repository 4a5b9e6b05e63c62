// Package rmscale is a library for measuring the scalability of
// resource management systems (RMSs) in managed distributed systems,
// reproducing Mitra, Maheswaran & Ali, "Measuring Scalability of
// Resource Management Systems" (IPDPS 2005).
//
// The package exposes three layers:
//
//   - A grid simulator: a discrete-event model of a managed distributed
//     system (resource pool in clusters, schedulers, status estimators,
//     routed network) that accounts useful work F, RMS overhead G and
//     RP overhead H.
//   - Seven RMS models from the paper: CENTRAL, LOWEST, RESERVE,
//     AUCTION, S-I, R-I and Sy-I, all implementing the Policy
//     interface; custom policies plug in the same way.
//   - The scalability measurement framework: the isoefficiency metric,
//     the simulated-annealing enabler tuner, and the four-step
//     measurement procedure producing minimal-overhead curves G(k).
//
// Quick start:
//
//	cfg := rmscale.DefaultConfig()
//	eng, err := rmscale.NewEngine(cfg, rmscale.NewLowest())
//	if err != nil { ... }
//	fmt.Println(eng.Run())
//
// To measure scalability, implement or reuse an Evaluator and call
// Measure, or run one of the paper's experiment cases with
// RunCaseSpec. The programs under examples/ are the executable
// contract of this surface: rmslint's deadcode gate roots the module
// at them and at the binaries, so what no program calls is removed.
package rmscale

import (
	"io"
	"os"

	"rmscale/internal/audit/chaos"
	"rmscale/internal/experiments"
	"rmscale/internal/fsutil"
	"rmscale/internal/grid"
	"rmscale/internal/rms"
	"rmscale/internal/runner"
	"rmscale/internal/scale"
	"rmscale/internal/sim"
	"rmscale/internal/stats"
	"rmscale/internal/topology"
	"rmscale/internal/workload"
)

// Simulation layer.
type (
	// Config describes one grid simulation run.
	Config = grid.Config
	// CostModel fixes per-operation RMS costs.
	CostModel = grid.CostModel
	// Enablers are the tunable scaling enablers y(k).
	Enablers = grid.Enablers
	// Protocol fixes the RMS protocol constants (Table 1 and friends).
	Protocol = grid.Protocol
	// FaultModel injects resource crashes and update loss.
	FaultModel = grid.FaultModel
	// GridSpec lays out clusters, cluster size and estimators.
	GridSpec = topology.GridSpec
	// Engine is a runnable simulation.
	Engine = grid.Engine
	// Summary condenses a run into the paper's accounting terms.
	Summary = grid.Summary
	// Metrics is the full in-run accounting.
	Metrics = grid.Metrics
	// Policy is the RMS model interface.
	Policy = grid.Policy
	// Scheduler is the per-cluster decision maker handed to policies.
	Scheduler = grid.Scheduler
	// Message is an inter-scheduler protocol message.
	Message = grid.Message
	// JobCtx is the envelope a job travels in.
	JobCtx = grid.JobCtx
	// Substrate is the shareable topology, routing and job-stream build.
	Substrate = grid.Substrate
	// SubstrateCache memoizes substrates for tuners.
	SubstrateCache = grid.SubstrateCache
)

// Measurement layer.
type (
	// Band is the isoefficiency band.
	Band = scale.Band
	// Enabler is one tunable dimension of the measurement.
	Enabler = scale.Enabler
	// Evaluator runs the system at scale k with given enabler values.
	Evaluator = scale.Evaluator
	// EvaluatorFunc adapts a function to Evaluator.
	EvaluatorFunc = scale.EvaluatorFunc
	// Observation is one evaluation's accounting.
	Observation = scale.Observation
	// MeasureSpec configures the measurement procedure.
	MeasureSpec = scale.MeasureSpec
	// Measurement is the tuned G(k) curve with derived quantities.
	Measurement = scale.Measurement
	// Point is the tuned result at one scale factor.
	Point = scale.Point
	// IsoAnalysis carries the closed-form isoefficiency constants.
	IsoAnalysis = scale.IsoAnalysis
	// Variable is a named scaling variable x(k).
	Variable = scale.Variable
)

// Reporting layer.
type (
	// Series is one named curve.
	Series = stats.Series
	// SeriesSet is one figure (a set of curves over a shared axis).
	SeriesSet = stats.SeriesSet
	// ChartOptions sizes the terminal rendering of a figure.
	ChartOptions = stats.ChartOptions
	// Fidelity selects experiment runtime cost.
	Fidelity = experiments.Fidelity
	// CaseResult is the outcome of one experiment case.
	CaseResult = experiments.Result
	// ChurnResult pairs a case's fault-free and degraded measurements.
	ChurnResult = experiments.ChurnResult
)

// Execution layer (the runner subsystem): parallel, cached,
// checkpoint/resumable experiment execution.
type (
	// RunSpec configures experiment execution: worker count, run
	// directory (disk cache + checkpoint journal + runstate.json),
	// progress sinks and cancellation.
	RunSpec = experiments.RunSpec
	// RunSnapshot is the machine-readable progress state the runner
	// writes to runstate.json.
	RunSnapshot = runner.Snapshot
)

// Robustness layer: the chaos harness that hunts for fault schedules
// breaking the runtime invariant auditor's checks.
type (
	// ChaosSchedule is one runnable fault scenario (the reproducer
	// JSON format).
	ChaosSchedule = chaos.Schedule
	// ChaosCrash scripts one RMS-node outage.
	ChaosCrash = chaos.Crash
	// ChaosWindow scripts one protocol-loss interval.
	ChaosWindow = chaos.Window
	// ChaosCorruption scripts one metric falsification (self-test).
	ChaosCorruption = chaos.Corruption
	// ChaosReport is the audit outcome of one schedule run.
	ChaosReport = chaos.Report
	// ChaosOptions configures a chaos sweep.
	ChaosOptions = chaos.Options
	// ChaosFinding is one violating schedule with replay and shrink
	// evidence.
	ChaosFinding = chaos.Finding
	// ChaosResult summarizes a chaos sweep.
	ChaosResult = chaos.Result
)

// ChaosSweep generates random fault schedules, runs each against an
// audited engine on the runner pool, replays every violation to
// confirm deterministic reproduction, and shrinks failing schedules to
// minimal JSON reproducers.
func ChaosSweep(opts ChaosOptions) (ChaosResult, error) { return chaos.Sweep(opts) }

// RunChaosSchedule executes one chaos schedule (for example a loaded
// reproducer) against an audited engine.
func RunChaosSchedule(s ChaosSchedule) (ChaosReport, error) { return chaos.Run(s) }

// ReadChaosSchedule loads and validates a chaos reproducer file.
func ReadChaosSchedule(path string) (ChaosSchedule, error) { return chaos.ReadJSON(path) }

// RunCaseSpec runs one experiment case under full execution control.
func RunCaseSpec(id int, spec RunSpec) (*CaseResult, error) {
	return experiments.RunCaseSpec(id, spec)
}

// RunAllSpec runs all four cases on one shared work-stealing pool.
func RunAllSpec(spec RunSpec) ([]*CaseResult, error) {
	return experiments.RunAllSpec(spec)
}

// ChurnFaults returns the fixed fault load of the degraded-mode
// experiment: scheduler and estimator crash/repair cycles, protocol
// message loss and access-link outages with timeout/retry armed.
func ChurnFaults() FaultModel { return experiments.ChurnFaults() }

// RunChurnSpec runs one case fault-free and again under the fault
// load, re-tuning the scaling enablers per model in both, and returns
// the paired measurements for the scalability-under-churn comparison.
func RunChurnSpec(id int, fm FaultModel, spec RunSpec) (*ChurnResult, error) {
	return experiments.RunChurnSpec(id, fm, spec)
}

// WriteFileAtomic writes data to path via a same-directory temp file
// and rename, so an interrupted writer never leaves a truncated file.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	return fsutil.WriteFileAtomic(path, data, perm)
}

// Fidelity levels for the experiment drivers.
const (
	Smoke = experiments.Smoke
	Quick = experiments.Quick
	Full  = experiments.Full
)

// DefaultConfig returns the base (k=1) stressed-grid configuration.
func DefaultConfig() Config { return grid.DefaultConfig() }

// NewEngine builds a runnable simulation for the config and policy.
func NewEngine(cfg Config, p Policy) (*Engine, error) { return grid.New(cfg, p) }

// NewEngineWith is NewEngine sharing a pre-built substrate.
func NewEngineWith(cfg Config, p Policy, s *Substrate) (*Engine, error) {
	return grid.NewWith(cfg, p, s)
}

// NewSubstrateCache returns an empty substrate cache.
func NewSubstrateCache() *SubstrateCache { return grid.NewSubstrateCache() }

// Models returns fresh instances of the paper's seven RMS models.
func Models() []Policy { return rms.All() }

// ModelNames lists the models in the paper's order.
func ModelNames() []string { return rms.Names() }

// ModelByName returns a fresh instance of the named model.
func ModelByName(name string) (Policy, error) { return rms.ByName(name) }

// NewCentral returns the CENTRAL model.
func NewCentral() Policy { return rms.NewCentral() }

// NewLowest returns the LOWEST model.
func NewLowest() Policy { return rms.NewLowest() }

// PaperBand returns the paper's isoefficiency band [0.38, 0.42].
func PaperBand() Band { return scale.PaperBand() }

// Measure runs the paper's four-step scalability measurement procedure.
func Measure(ev Evaluator, spec MeasureSpec) (*Measurement, error) {
	return scale.Measure(ev, spec)
}

// NewIsoAnalysis derives the isoefficiency constants c and c' from a
// base observation and a target efficiency.
func NewIsoAnalysis(base Observation, e0 float64) (IsoAnalysis, error) {
	return scale.NewIsoAnalysis(base, e0)
}

// ConditionReport finds the first scale factor violating the
// isoefficiency condition f(k) > c*g(k), or -1.
func ConditionReport(m *Measurement) (int, error) { return scale.ConditionReport(m) }

// ParseFidelity converts "smoke", "quick" or "full".
func ParseFidelity(s string) (Fidelity, error) { return experiments.ParseFidelity(s) }

// Workload layer.
type (
	// Job is one unit of user work.
	Job = workload.Job
	// WorkloadParams configures the synthetic generator.
	WorkloadParams = workload.Params
	// Trace bundles generated jobs with their parameters.
	Trace = workload.Trace
	// SWFOptions configures Standard Workload Format import.
	SWFOptions = workload.SWFOptions
	// JWParams configures the Jogalekar-Woodside comparison metric.
	JWParams = scale.JWParams
	// JWResult is the Jogalekar-Woodside metric over a measurement.
	JWResult = scale.JWResult
)

// GenerateWorkload produces the synthetic job stream for the params,
// deterministic in seed.
func GenerateWorkload(p WorkloadParams, seed int64) ([]*Job, error) {
	return workload.Generate(p, sim.NewSource(seed).Stream("workload"))
}

// ReadSWF imports a Standard Workload Format trace; benefit factors
// are drawn deterministically from seed.
func ReadSWF(r io.Reader, opts SWFOptions, seed int64) ([]*Job, error) {
	return workload.ReadSWF(r, opts, sim.NewSource(seed).Stream("swf"))
}

// WriteSWF exports jobs in the Standard Workload Format.
func WriteSWF(w io.Writer, jobs []*Job) error { return workload.WriteSWF(w, jobs) }

// Scaling-path search (the measurement procedure's Step 2).
type (
	// PathVar is one scaling variable the RP search may adjust.
	PathVar = scale.PathVar
	// PathSpec configures the scaling-path search.
	PathSpec = scale.PathSpec
	// PathEvaluatorFunc adapts a function to the path evaluator.
	PathEvaluatorFunc = scale.PathEvaluatorFunc
	// Path is a found scaling path.
	Path = scale.Path
)

// FindScalingPath searches for the cheapest feasible evolution of the
// scaling variables — the paper's "identify the scaling path over
// which the system functions profitably".
func FindScalingPath(ev scale.PathEvaluator, spec PathSpec) (*Path, error) {
	return scale.FindScalingPath(ev, spec)
}

// JogalekarWoodside evaluates the throughput-based scalability metric
// of Jogalekar & Woodside (the paper's related-work comparator) over a
// measurement, for side-by-side comparison with the overhead-based
// isoefficiency metric.
func JogalekarWoodside(m *Measurement, p JWParams) (*JWResult, error) {
	return scale.JogalekarWoodside(m, p)
}

// AblationResult is one ablation study's comparison table.
type AblationResult = experiments.AblationResult

// Tuner selects the optimizer for Measure: TunerAnneal (the paper's
// simulated annealing) or TunerGrid (the exhaustive baseline).
type Tuner = scale.Tuner

// Tuner values.
const (
	TunerAnneal = scale.TunerAnneal
	TunerGrid   = scale.TunerGrid
)

// RunAblations executes every ablation study (update suppression,
// estimator layer, middleware provisioning, tuner choice, fault
// injection).
func RunAblations(f Fidelity, seed int64) ([]*AblationResult, error) {
	return experiments.AllAblations(f, seed)
}

// PaperConstantsTable renders Table 1 (the common experiment
// constants).
func PaperConstantsTable(w io.Writer) error {
	return experiments.PaperConstants().WriteTable1(w)
}

// ScalingTables renders Tables 2-5 (scaling variables and enablers per
// case).
func ScalingTables(w io.Writer) error { return experiments.WriteScalingTables(w) }

// ModelRoster renders the seven evaluated models with their protocol
// descriptions (the paper's Section 3.3 taxonomy).
func ModelRoster(w io.Writer) error { return experiments.WriteModelRoster(w) }
