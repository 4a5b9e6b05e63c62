// Command tool is the fixture's main package.
package main

import (
	"fmt"

	"deadcode"
	"deadcode/internal/lib"
)

func main() {
	e := deadcode.New()
	fmt.Println(e.K != nil, lib.Label("x"), lib.Tally([]int{1, 2}))
}

func unused() {} // want "main\\.unused is unreachable from every production root"
