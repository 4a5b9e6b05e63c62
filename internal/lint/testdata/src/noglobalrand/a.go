// Package noglobalrand seeds global-RNG violations for the
// analyzer's analysistest case. Never built by the module.
package noglobalrand

import (
	"math/rand"
	randv2 "math/rand/v2"
)

func violations() {
	_ = rand.Intn(7)                      // want "rand.Intn uses the process-global RNG"
	_ = rand.Float64()                    // want "rand.Float64 uses the process-global RNG"
	rand.Shuffle(3, func(i, j int) {})    // want "rand.Shuffle uses the process-global RNG"
	_ = randv2.Int()                      // want "rand.Int uses the process-global RNG"
	_ = rand.New(rand.NewSource(1))       // want "rand.New builds an RNG" "rand.NewSource builds an RNG"
	_ = randv2.New(randv2.NewPCG(1, 2))   // want "rand.New builds an RNG" "rand.NewPCG builds an RNG"
	f := rand.ExpFloat64                  // want "rand.ExpFloat64 uses the process-global RNG"
	_ = f
}

// typeRefsAllowed shows that naming the types is fine: stream
// wrappers store them.
func typeRefsAllowed(r *rand.Rand, s rand.Source) *rand.Rand {
	_ = s
	return r
}

func sanctionedFactory(seed int64) *rand.Rand {
	//lint:allow detertaint fixture stand-in for the sim.Source named-stream factory
	return rand.New(rand.NewSource(seed))
}
