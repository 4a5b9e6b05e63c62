// Regression fixture for the multi-line statement span: a directive
// anchored on a statement's first line must cover the whole wrapped
// statement, not just the line it starts on.
package nowallclock

import "time"

func consume(a int, t time.Time) int { return a }

func suppressedSpan() int {
	//lint:allow detertaint fixture: sanctioned read on a wrapped line
	return consume(
		1,
		time.Now(),
	)
}

func unsuppressedSpan() int {
	return consume(
		2,
		time.Now(), // want "time.Now reads the wall clock"
	)
}
