// Package workload generates the synthetic job streams the paper drives
// its grid simulations with. The model follows the paper's reduction of
// the Cirne-Berman supercomputer workload model: each job has an arrival
// instant, a partition size (fixed to 1 here, as in the paper), an
// execution time, a requested time that upper-bounds the execution time,
// and a cancellation probability (fixed to 0 here). Jobs are classified
// LOCAL when their execution time is at most T_CPU and REMOTE otherwise,
// and a job is successful when it completes within its user benefit
// bound U_b = benefit x runtime with benefit uniform in [2,5].
package workload

import (
	"fmt"
	"math"

	"rmscale/internal/sim"
)

// Class partitions jobs by placement constraint.
type Class uint8

const (
	// Local jobs must execute in (or near) their submission cluster.
	Local Class = iota
	// Remote jobs are eligible for execution at remote clusters.
	Remote
)

// String returns "LOCAL" or "REMOTE" as the paper spells them.
func (c Class) String() string {
	if c == Local {
		return "LOCAL"
	}
	return "REMOTE"
}

// Job is one unit of user work.
type Job struct {
	ID      int
	Arrival sim.Time
	// Runtime is the execution time at unit service rate, in time
	// units; it is the "useful work" content of the job.
	Runtime float64
	// Requested upper-bounds Runtime (the user's estimate).
	Requested float64
	// Benefit is the U_b factor in [2,5]; the job succeeds if it
	// completes by Arrival + Benefit*Runtime.
	Benefit float64
	// Partition is the number of processors; always 1 in this paper.
	Partition int
	// Cluster is the submission cluster.
	Cluster int
	Class   Class
	// Deps lists the IDs of jobs that must complete before this job
	// may be scheduled (precedence constraints; empty in the paper's
	// base model, set by callers of the engine's UseJobs).
	Deps []int
}

// Deadline returns the latest successful completion time,
// Arrival + Benefit*Runtime.
func (j *Job) Deadline() sim.Time { return j.Arrival + j.Benefit*j.Runtime }

// Params configures the synthetic generator. The zero value is not
// usable; start from DefaultParams.
type Params struct {
	// ArrivalRate is the expected number of jobs per time unit across
	// the whole system (the paper's "workload" scaling variable).
	ArrivalRate float64
	// Horizon bounds arrival times; jobs arrive in [0, Horizon).
	Horizon sim.Time
	// RuntimeMin/RuntimeMax bound the log-uniform execution time.
	RuntimeMin, RuntimeMax float64
	// TCPU is the LOCAL/REMOTE classification threshold (700 in the
	// paper: runtime <= TCPU means LOCAL).
	TCPU float64
	// BenefitMin/BenefitMax bound the uniform benefit factor
	// ([2,5] in the paper).
	BenefitMin, BenefitMax float64
	// OverestimateMax bounds the requested-time factor: requested is
	// uniform in [runtime, OverestimateMax*runtime]. Supercomputer
	// users overestimate heavily; 3x is a conservative default.
	OverestimateMax float64
	// Clusters is the number of submission clusters; arrivals spread
	// uniformly across them.
	Clusters int
	// WeibullShape, when in (0,1), switches inter-arrival times from
	// exponential to Weibull with that shape (burstier, as observed in
	// production traces). Zero keeps Poisson arrivals.
	WeibullShape float64
	// DiurnalAmplitude, when in (0,1), modulates the arrival rate with
	// a daily cycle — lambda(t) = rate * (1 + A*sin(2*pi*t/period)) —
	// the strong day/night pattern the Cirne-Berman traces exhibit.
	// Zero keeps a stationary process.
	DiurnalAmplitude float64
	// DiurnalPeriod is the cycle length in time units; zero picks a
	// quarter of the horizon.
	DiurnalPeriod float64
	// CancelProb is the job cancellation probability; the paper fixes
	// it to zero, and the generator rejects anything else to make the
	// modelling assumption explicit.
	CancelProb float64
}

// DefaultParams returns the paper-faithful configuration: T_CPU = 700,
// benefit in [2,5], log-uniform runtimes spanning the LOCAL/REMOTE
// boundary, Poisson arrivals.
func DefaultParams() Params {
	return Params{
		ArrivalRate:     1.0,
		Horizon:         4000,
		RuntimeMin:      10,
		RuntimeMax:      3000,
		TCPU:            700,
		BenefitMin:      2,
		BenefitMax:      5,
		OverestimateMax: 3,
		Clusters:        1,
	}
}

// Validate reports the first configuration error.
func (p Params) Validate() error {
	for _, v := range []struct {
		name string
		val  float64
	}{
		{"ArrivalRate", p.ArrivalRate},
		{"Horizon", p.Horizon},
		{"RuntimeMin", p.RuntimeMin},
		{"RuntimeMax", p.RuntimeMax},
		{"TCPU", p.TCPU},
		{"BenefitMin", p.BenefitMin},
		{"BenefitMax", p.BenefitMax},
		{"OverestimateMax", p.OverestimateMax},
		{"WeibullShape", p.WeibullShape},
		{"DiurnalAmplitude", p.DiurnalAmplitude},
		{"DiurnalPeriod", p.DiurnalPeriod},
		{"CancelProb", p.CancelProb},
	} {
		// Range checks like p.ArrivalRate <= 0 are false for NaN.
		if math.IsNaN(v.val) || math.IsInf(v.val, 0) {
			return fmt.Errorf("workload: %s must be finite, got %v", v.name, v.val)
		}
	}
	switch {
	case p.ArrivalRate <= 0:
		return fmt.Errorf("workload: ArrivalRate must be positive, got %v", p.ArrivalRate)
	case p.Horizon <= 0:
		return fmt.Errorf("workload: Horizon must be positive, got %v", p.Horizon)
	case p.RuntimeMin <= 0 || p.RuntimeMax < p.RuntimeMin:
		return fmt.Errorf("workload: bad runtime range [%v,%v]", p.RuntimeMin, p.RuntimeMax)
	case p.TCPU <= 0:
		return fmt.Errorf("workload: TCPU must be positive, got %v", p.TCPU)
	case p.BenefitMin < 1 || p.BenefitMax < p.BenefitMin:
		return fmt.Errorf("workload: bad benefit range [%v,%v]", p.BenefitMin, p.BenefitMax)
	case p.OverestimateMax < 1:
		return fmt.Errorf("workload: OverestimateMax must be >= 1, got %v", p.OverestimateMax)
	case p.Clusters < 1:
		return fmt.Errorf("workload: Clusters must be >= 1, got %d", p.Clusters)
	case p.WeibullShape < 0 || p.WeibullShape > 1:
		return fmt.Errorf("workload: WeibullShape must be in [0,1], got %v", p.WeibullShape)
	case p.DiurnalAmplitude < 0 || p.DiurnalAmplitude >= 1:
		return fmt.Errorf("workload: DiurnalAmplitude must be in [0,1), got %v", p.DiurnalAmplitude)
	case p.DiurnalPeriod < 0:
		return fmt.Errorf("workload: negative DiurnalPeriod %v", p.DiurnalPeriod)
	case p.CancelProb != 0:
		return fmt.Errorf("workload: paper model fixes cancellation probability to 0, got %v", p.CancelProb)
	}
	return nil
}

// Generate produces the job stream for the configured horizon, sorted by
// arrival time. It is deterministic given the stream.
func Generate(p Params, st *sim.Stream) ([]*Job, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// With a diurnal cycle the process is thinned: candidates arrive at
	// the peak rate and are accepted with probability lambda(t)/peak.
	peak := p.ArrivalRate * (1 + p.DiurnalAmplitude)
	period := p.DiurnalPeriod
	if period == 0 {
		period = p.Horizon / 4
	}
	accept := func(t sim.Time) bool {
		if p.DiurnalAmplitude == 0 {
			return true
		}
		rate := p.ArrivalRate * (1 + p.DiurnalAmplitude*math.Sin(2*math.Pi*float64(t)/period))
		return st.Bool(rate / peak)
	}
	meanInter := 1 / peak
	// The jobs live in one backing array per workload instead of one
	// allocation each; sizing it to the expected count plus three
	// standard deviations makes a regrow rare.
	want := p.ArrivalRate * float64(p.Horizon)
	vals := make([]Job, 0, int(want+3*math.Sqrt(want))+1)
	t := sim.Time(0)
	id := 0
	for {
		var gap float64
		if p.WeibullShape > 0 {
			// Match the mean of the exponential process:
			// E[Weibull(k, lambda)] = lambda*Gamma(1+1/k).
			scale := meanInter / gammaApprox(1+1/p.WeibullShape)
			gap = st.Weibull(p.WeibullShape, scale)
		} else {
			gap = st.Exp(meanInter)
		}
		t += gap
		if t >= p.Horizon {
			break
		}
		if !accept(t) {
			continue
		}
		runtime := st.LogUniform(p.RuntimeMin, p.RuntimeMax)
		class := Local
		if runtime > p.TCPU {
			class = Remote
		}
		vals = append(vals, Job{
			ID:        id,
			Arrival:   t,
			Runtime:   runtime,
			Requested: runtime * st.Uniform(1, p.OverestimateMax),
			Benefit:   st.Uniform(p.BenefitMin, p.BenefitMax),
			Partition: 1,
			Cluster:   st.Intn(p.Clusters),
			Class:     class,
		})
		id++
	}
	if len(vals) == 0 {
		return nil, nil
	}
	jobs := make([]*Job, len(vals))
	for i := range vals {
		jobs[i] = &vals[i]
	}
	return jobs, nil
}

// gammaApprox evaluates the Gamma function via the Lanczos
// approximation, sufficient for the Weibull mean normalization (x > 1).
func gammaApprox(x float64) float64 {
	// Lanczos coefficients (g=7, n=9).
	coeffs := [...]float64{
		0.99999999999980993, 676.5203681218851, -1259.1392167224028,
		771.32342877765313, -176.61502916214059, 12.507343278686905,
		-0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7,
	}
	if x < 0.5 {
		// Reflection not needed for our inputs, but keep a safe path.
		return math.Pi / (math.Sin(math.Pi*x) * gammaApprox(1-x))
	}
	x--
	a := coeffs[0]
	t := x + 7.5
	for i := 1; i < len(coeffs); i++ {
		a += coeffs[i] / (x + float64(i))
	}
	return math.Sqrt(2*math.Pi) * math.Pow(t, x+0.5) * math.Exp(-t) * a
}
