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

// Stream returns the deterministic stream for name. Calling Stream twice
// with the same name yields two streams that produce the same sequence.
func (s *Source) Stream(name string) *Stream {
	return newStream(name, subSeed(s.seed, name))
}

// subSeed derives the seed of the stream name under master seed.
func subSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	const golden = uint64(0x9e3779b97f4a7c15)
	return int64(h.Sum64() ^ (uint64(seed) * golden))
}

// newStream builds the stream seeded with sub: the sequence of
// rand.New(rand.NewSource(sub)), from a state built by jump-ahead.
func newStream(name string, sub int64) *Stream {
	st := &Stream{name: name}
	st.src.Seed(sub)
	//lint:allow detertaint the named-stream factory is the single sanctioned rand.New site; its source is seeded from the sub-seed, which derives deterministically from the master seed and stream name
	st.rng = rand.New(&st.src)
	return st
}

// Stream is a single deterministic random number stream with the
// distribution helpers the grid model needs.
type Stream struct {
	rng  *rand.Rand
	name string
	src  lfgSource
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

// Stream seeding by jump-ahead.
//
// rand.NewSource(s) builds the 607-word state of an additive lagged
// Fibonacci generator by stepping the Lehmer generator
// x ← 48271·x mod (2³¹−1) from x₀ = s mod (2³¹−1): it discards 20
// steps, then word i takes the next three, x₀·48271^(21+3i),
// ^(22+3i) and ^(23+3i), as x<<40 ^ x<<20 ^ x, XORed with a constant
// of its own (math/rand's "cooked" table). Those 1,841 dependent steps
// dominate the cost of a stream. Each step's value is also x₀ times a
// fixed power of 48271, so lfgSource.Seed multiplies x₀ by a power
// table built once (independent multiplies, not a chain), and the
// cooked table is read back at start-up from the first 607 outputs of
// a rand.NewSource, through its public API. The state, and so every
// draw, is the one rand.NewSource(s) builds.

const (
	lfgLen  = 607       // words in math/rand's generator state
	lfgTap  = 273       // its shorter lag
	lehmerM = 1<<31 - 1 // the seeding generator's prime modulus
	lehmerA = 48271     // its multiplier
	lehmerK = 20        // steps math/rand discards before word 0
)

var (
	// seedPow[k] is 48271^(lehmerK+1+k) mod (2³¹−1): word i takes
	// x₀ times seedPow[3i], seedPow[3i+1] and seedPow[3i+2].
	seedPow [3 * lfgLen]uint64
	// seedCooked[i] is the constant math/rand XORs into word i.
	seedCooked [lfgLen]uint64
)

func init() {
	p := uint64(1)
	for k := 0; k < lehmerK; k++ {
		p = mulMod(p, lehmerA)
	}
	for k := range seedPow {
		p = mulMod(p, lehmerA)
		seedPow[k] = p
	}
	//lint:allow detertaint start-up reads math/rand's constant table back through one fixed-seed source; no draw reaches a simulation
	probe := initialState(rand.NewSource(1).(rand.Source64))
	var plain lfgSource
	plain.seedWords(1)
	for i := range seedCooked {
		seedCooked[i] = probe[i] ^ plain.vec[i]
	}
}

// mulMod returns x·y mod (2³¹−1) for x, y < 2³¹, by the Mersenne
// reduction 2³¹ ≡ 1: the product's high and low 31 bits add up to
// the remainder, less one modulus at most.
func mulMod(x, y uint64) uint64 {
	p := x * y
	r := p&lehmerM + p>>31
	if r >= lehmerM {
		r -= lehmerM
	}
	return r
}

// initialState recovers the state a math/rand generator was seeded
// with from its first lfgLen outputs. Output n (from 1) is
// y(n) = y(n−607) + y(n−273) mod 2⁶⁴, where y(n−607) for n ≤ 607 is
// the seeded word in slot (334−n) mod 607 and y(m) for m ≤ 0 is a
// seeded word too, so y(n−607) = y(n) − y(n−273), solved from the
// last output down.
func initialState(src rand.Source64) (vec [lfgLen]uint64) {
	var out, y0 [lfgLen]uint64 // y0[n-1] = y(n−607)
	for n := range out {
		out[n] = src.Uint64()
	}
	for n := lfgLen; n >= 1; n-- {
		var tap uint64 // y(n−273)
		if lag := n - lfgTap; lag >= 1 {
			tap = out[lag-1]
		} else {
			tap = y0[lag+lfgLen-1]
		}
		y0[n-1] = out[n-1] - tap
	}
	for n := 1; n <= lfgLen; n++ {
		vec[(lfgLen-lfgTap-n+lfgLen)%lfgLen] = y0[n-1]
	}
	return vec
}

// lfgSource is math/rand's generator: the same state, steps and
// outputs, seeded by jump-ahead. It implements rand.Source64.
type lfgSource struct {
	tap, feed int
	vec       [lfgLen]uint64
}

// Seed sets the state rand.NewSource(seed) starts from.
func (r *lfgSource) Seed(seed int64) {
	r.tap, r.feed = 0, lfgLen-lfgTap
	x := seed % lehmerM
	if x < 0 {
		x += lehmerM
	}
	if x == 0 {
		// math/rand swaps a constant in for this one residue class;
		// read its state back rather than copy the constant.
		//lint:allow detertaint a seed ≡ 0 mod 2³¹−1 replays math/rand's own seeding of the same sub-seed, one state read back per stream
		r.vec = initialState(rand.NewSource(seed).(rand.Source64))
		return
	}
	r.seedWords(x)
	for i := range r.vec {
		r.vec[i] ^= seedCooked[i]
	}
}

// seedWords fills the state with word i = x₀·48271^(21+3i) << 40 ^
// x₀·48271^(22+3i) << 20 ^ x₀·48271^(23+3i), all mod 2³¹−1, for
// 0 < x0 < 2³¹−1: the seeding before the cooked table.
func (r *lfgSource) seedWords(x0 int64) {
	x := uint64(x0)
	for i := range r.vec {
		p := seedPow[3*i : 3*i+3 : 3*i+3]
		r.vec[i] = mulMod(x, p[0])<<40 ^ mulMod(x, p[1])<<20 ^ mulMod(x, p[2])
	}
}

// Uint64 returns the next 64-bit output.
func (r *lfgSource) Uint64() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += lfgLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += lfgLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return x
}

// Int63 returns the next output with its top bit cleared.
func (r *lfgSource) Int63() int64 { return int64(r.Uint64() &^ (1 << 63)) }
