package sim

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// Source produces named, independent, deterministic random streams from a
// single master seed. Two Sources built from the same seed hand out
// identical streams for identical names, which makes every component of a
// simulation reproducible independently of the order in which other
// components draw random numbers.
type Source struct {
	seed int64
}

// NewSource returns a stream factory rooted at seed.
func NewSource(seed int64) *Source {
	return &Source{seed: seed}
}

// Seed returns the master seed.
func (s *Source) Seed() int64 { return s.seed }

// Stream returns the deterministic stream for name. Calling Stream twice
// with the same name yields two streams that produce the same sequence.
func (s *Source) Stream(name string) *Stream {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	const golden = uint64(0x9e3779b97f4a7c15)
	sub := int64(h.Sum64() ^ (uint64(s.seed) * golden))
	//lint:allow noglobalrand the named-stream factory is the single sanctioned rand.New site; the sub-seed derives deterministically from the master seed and stream name
	return &Stream{rng: rand.New(rand.NewSource(sub)), name: name}
}

// Stream is a single deterministic random number stream with the
// distribution helpers the grid model needs.
type Stream struct {
	rng  *rand.Rand
	name string
}

// Name returns the name the stream was created under.
func (st *Stream) Name() string { return st.name }

// Float64 returns a uniform value in [0,1).
func (st *Stream) Float64() float64 { return st.rng.Float64() }

// Uniform returns a uniform value in [lo,hi).
func (st *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*st.rng.Float64()
}

// Intn returns a uniform int in [0,n). It panics when n <= 0, matching
// math/rand.
func (st *Stream) Intn(n int) int { return st.rng.Intn(n) }

// IntRange returns a uniform int in [lo,hi] inclusive.
func (st *Stream) IntRange(lo, hi int) int {
	if hi < lo {
		panic("sim: IntRange hi < lo")
	}
	return lo + st.rng.Intn(hi-lo+1)
}

// Exp returns an exponential variate with the given mean. A zero or
// negative mean yields 0, which callers use to disable a process.
func (st *Stream) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return st.rng.ExpFloat64() * mean
}

// LogUniform returns a variate whose logarithm is uniform over
// [log lo, log hi]. This is the execution-time distribution observed in
// the Cirne-Berman supercomputer workload model.
func (st *Stream) LogUniform(lo, hi float64) float64 {
	if lo <= 0 || hi < lo {
		panic("sim: LogUniform requires 0 < lo <= hi")
	}
	return lo * math.Exp(st.rng.Float64()*math.Log(hi/lo))
}

// Normal returns a normal variate.
func (st *Stream) Normal(mu, sigma float64) float64 {
	return mu + sigma*st.rng.NormFloat64()
}

// Weibull returns a Weibull variate with the given shape and scale.
// Shape < 1 gives the bursty inter-arrival behaviour reported for
// supercomputer workloads.
func (st *Stream) Weibull(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("sim: Weibull requires positive shape and scale")
	}
	u := st.rng.Float64()
	// Guard against u == 0: log(0) is -Inf.
	for u == 0 {
		u = st.rng.Float64()
	}
	return scale * math.Pow(-math.Log(u), 1/shape)
}

// Bool returns true with probability p.
func (st *Stream) Bool(p float64) bool { return st.rng.Float64() < p }

// Perm returns a pseudo-random permutation of [0,n).
func (st *Stream) Perm(n int) []int { return st.rng.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (st *Stream) Shuffle(n int, swap func(i, j int)) { st.rng.Shuffle(n, swap) }

// Sample returns k distinct values from [0,n) in random order. When
// k >= n it returns a permutation of all n values.
func (st *Stream) Sample(n, k int) []int {
	if k >= n {
		return st.rng.Perm(n)
	}
	p := st.rng.Perm(n)
	return p[:k]
}

// SampleInto is Sample with caller-provided scratch: it fills dst[:n]
// with a permutation of [0,n) and returns the first min(k, n) entries.
// dst must have capacity for n values. The draw sequence is exactly the
// one Sample/Perm consume (math/rand's Fisher–Yates loop), so swapping
// Sample for SampleInto never shifts a stream — hot paths get the
// allocation-free variant without perturbing determinism.
func (st *Stream) SampleInto(dst []int, n, k int) []int {
	m := dst[:n]
	for i := 0; i < n; i++ {
		j := st.rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	if k > n {
		k = n
	}
	return m[:k]
}
