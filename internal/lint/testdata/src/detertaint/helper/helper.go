// Package helper plays the laundering utility package. In the module
// it would sit outside the SimVisible list, where detertaint reports
// nothing, and only the taint chain can follow a wall-clock read back
// out of it; the fixture test runs the analyzer here too, so its
// sources and hops are reported as well. Never built by the module.
package helper

import "time"

// now is the raw source two hops below the boundary.
func now() int64 { return time.Now().UnixNano() } // want "time\\.Now reads the wall clock"

// Stamp launders the wall clock through one local hop; its own call
// is already reported here, inside the helper package.
func Stamp() int64 {
	return now() // want "reaches time\\.Now"
}

// Sanctioned cuts the chain at the source: one annotation on the
// time.Now line silences the source and its taint alike, so callers
// of Sanctioned stay clean.
func Sanctioned() int64 {
	//lint:allow detertaint fixture: sanctioned wall-clock read for a report timestamp
	return time.Now().UnixNano()
}
