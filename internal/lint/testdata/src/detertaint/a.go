// Package detertaint stands in for a simulation-visible package that
// reaches determinism-breaking sources only through other packages
// and other functions — the exact hole the direct per-line analyzers
// cannot see. Never built by the module.
package detertaint

import (
	"math/rand"

	"detertaint/helper"
)

// Entry reaches the wall clock two packages away; the witness chain
// names every hop down to the source.
func Entry() int64 {
	return helper.Stamp() // want "reaches time\\.Now \\(helper\\.Stamp -> helper\\.now -> time\\.Now\\)"
}

// EntryAllowed suppresses at the tainted entry point instead of at
// the source: the helper stays tainted for everyone else.
func EntryAllowed() int64 {
	//lint:allow detertaint fixture: feeds a log line, not simulation state
	return helper.Stamp()
}

// Clean calls the source-side-annotated helper: the chain was cut
// where the annotation lives, so nothing propagates here.
func Clean() int64 {
	return helper.Sanctioned()
}

// Rand reaches the global RNG through a local hop.
func Rand() int {
	return draw() // want "reaches rand\\.Intn"
}

func draw() int {
	return pick() // want "reaches rand\\.Intn"
}

func pick() int {
	return rand.Intn(10) // want "rand\\.Intn uses the process-global RNG"
}

// ticker's one implementation is tainted, so interface dispatch is
// reported too (CHA over the module's concrete types).
type ticker interface{ Tick() int64 }

type wall struct{}

func (wall) Tick() int64 {
	return helper.Stamp() // want "reaches time\\.Now"
}

// Dispatch cannot name wall statically; the call graph can.
func Dispatch(t ticker) int64 {
	return t.Tick() // want "reaches time\\.Now"
}
