// Package deadcode is the fixture's API root: its path prefixes every
// other fixture package, so its exported declarations are production
// roots. Never built by the module.
package deadcode

import "deadcode/internal/lib"

// Engine exposes the library's kernel through an exported field, so
// every exported method of lib.Kernel is part of the API.
type Engine struct {
	K *lib.Kernel
}

// New is an exported function of the API package.
func New() *Engine { return &Engine{K: lib.NewKernel()} }
