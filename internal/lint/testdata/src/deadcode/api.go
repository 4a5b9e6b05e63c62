// Package deadcode is the fixture's root package. Its exported API is
// no root of its own: an exported function no main calls is reported
// like any other. Never built by the module.
package deadcode

import "deadcode/internal/lib"

// Engine exposes the library's kernel through an exported field. That
// keeps none of lib.Kernel's methods alive; only what a main calls is.
type Engine struct {
	K *lib.Kernel
}

// New is called from main.
func New() *Engine { return &Engine{K: lib.NewKernel()} }

// Unused is exported, but no main calls it.
func Unused() int { return 1 } // want "deadcode\\.Unused is unreachable from every production root"
