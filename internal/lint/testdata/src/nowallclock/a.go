// Package nowallclock seeds wall-clock violations for the analyzer's
// analysistest case. Never built by the module.
package nowallclock

import "time"

func violations() {
	_ = time.Now()                       // want "time.Now reads the wall clock"
	time.Sleep(time.Second)              // want "time.Sleep reads the wall clock"
	_ = time.Since(time.Time{})          // want "time.Since reads the wall clock"
	_ = time.NewTimer(time.Second)       // want "time.NewTimer reads the wall clock"
	_ = time.NewTicker(time.Millisecond) // want "time.NewTicker reads the wall clock"
	_ = time.After(time.Second)          // want "time.After reads the wall clock"
	f := time.Now // want "time.Now reads the wall clock"
	_ = f
}

func allowed() time.Duration {
	var d time.Duration = 3 * time.Second // duration arithmetic is pure
	var t time.Time                       // the type itself is fine
	_ = t
	_ = time.Unix(0, 0) // constructing a fixed instant is pure
	return d
}

func annotated() {
	//lint:allow detertaint fixture exercising the escape hatch
	_ = time.Now()
	_ = time.Now() //lint:allow detertaint trailing directive form
}
