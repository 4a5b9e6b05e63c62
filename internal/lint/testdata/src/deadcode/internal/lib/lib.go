// Package lib seeds what deadcode reports and what it must leave
// alone. Never built by the module.
package lib

// Kernel is reached from the API through the exported field
// deadcode.Engine.K.
type Kernel struct{ n int }

// NewKernel is called from the API package.
func NewKernel() *Kernel { return &Kernel{} }

// Step is an exported method of a type the API reaches: a root, though
// nothing in the fixture calls it.
func (k *Kernel) Step() { k.n++ }

func (k *Kernel) reset() { k.n = 0 } // want "lib\\.Kernel\\.reset is unreachable from every production root"

// Label is printed by fmt, which calls String through fmt.Stringer.
type Label string

func (l Label) String() string { return "label " + string(l) }

type counter struct{ total int }

// add is reached only as a method value.
func (c *counter) add(x int) { c.total += x }

// double is reached only as a callback argument.
func double(x int) int { return 2 * x }

// Map is a generic function, called with inferred type arguments.
func Map[T, U any](xs []T, f func(T) U) []U {
	out := make([]U, 0, len(xs))
	for _, x := range xs {
		out = append(out, f(x))
	}
	return out
}

// Box is a generic type. A call of Get on Box[int] names the
// instantiated method, which maps back to this declaration through
// Origin.
type Box[T any] struct{ v T }

func (b Box[T]) Get() T { return b.v }

func visit(xs []int, fn func(int)) {
	for _, x := range xs {
		fn(x)
	}
}

// Tally is called from main.
func Tally(xs []int) int {
	c := &counter{}
	visit(Map(xs, double), c.add)
	return c.total + hooks[0]() + Box[int]{v: 1}.Get()
}

// hooks holds a function referenced only from a package-level var.
var hooks = []func() int{hooked}

func hooked() int { return 1 }

// OnlyTests has no production caller; only a test would call it.
func OnlyTests() int { return 42 } // want "lib\\.OnlyTests is unreachable from every production root"

// Kept has no production caller either, but an allow keeps it.
//
//lint:allow deadcode fixture: an allow directive suppresses the finding
func Kept() int { return 7 }
