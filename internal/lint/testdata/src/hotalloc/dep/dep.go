// Package dep holds a callee of a hot root in another package:
// hotness crosses package boundaries through the call graph, so the
// boxing here is charged to the hot path even though this package
// carries no marks of its own. Never built by the module.
package dep

// Box is reachable from hotalloc.Hot through a concrete call.
func Box(v int) any {
	return eat(v) // want "argument boxes v into interface any on the hot path"
}

func eat(x any) any { return x }

// Cell is a generic type. The hot call of Get names the instantiated
// method Cell[int].Get, which the call graph maps back to this
// declaration, so Get's body is on the hot path too.
type Cell[T any] struct{ v T }

func (c Cell[T]) Get(n int) []T {
	return make([]T, n) // want "make allocates on the hot path rooted at //lint:hotpath hotalloc\\.Hot \\(via dep\\.Cell\\.Get\\)"
}
