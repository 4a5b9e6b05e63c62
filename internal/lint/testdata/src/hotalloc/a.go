// Package hotalloc seeds every allocation shape the hot-path budget
// analyzer bans, next to the exemptions it documents. Never built by
// the module.
package hotalloc

import "hotalloc/dep"

var scratch []int

type pair struct{ a, b int }

func variadic(vs ...int) int { return len(vs) }
func drop(x any)             {}
func name() string           { return "k" }

// Hot stands in for a kernel event-loop function.
//
//lint:hotpath fixture: stands in for the fel.go event loop
func Hot(buf []byte, n int) []byte {
	m := map[int]int{} // want "map literal allocates in //lint:hotpath function hotalloc\\.Hot"
	_ = m
	s := []int{1, 2} // want "slice literal allocates a backing array"
	_ = s
	p := &pair{a: 1} // want "&composite literal escapes to the heap"
	_ = p
	b := make([]byte, n) // want "make allocates"
	_ = b
	scratch = append(scratch, n)  // self-append scratch reuse: exempt
	grown := append(buf, byte(n)) // want "append grows a new backing array"
	cb := func() int { return n } // want "func literal allocates a closure"
	_ = cb
	raw := []byte(name()) // want "conversion to \\[\\]byte copies its operand"
	_ = raw
	variadic(1, 2) // want "variadic call variadic materializes an argument slice"
	_ = dep.Box(n)
	_ = dep.Cell[int]{}.Get(n)
	helper(n)
	return grown
}

// helper carries no mark: it is hot only because Hot calls it.
func helper(v int) {
	drop(v) // want "argument boxes v into interface any on the hot path rooted at //lint:hotpath hotalloc\\.Hot \\(via hotalloc\\.helper\\)"
}

// Cold is unreachable from any mark: the same constructs are clean.
func Cold(n int) []int {
	out := make([]int, n)
	return append(out, 1)
}

// HotAllowed shows the site-level exemption for a deliberate
// allocation inside a marked function.
//
//lint:hotpath fixture: suppression-anchor demonstration
func HotAllowed(n int) []byte {
	//lint:allow hotalloc fixture: one-time cold-start growth, amortized over the run
	return make([]byte, n)
}
