// Command rmslint runs the module's determinism analyzers
// (internal/lint) over the packages matched by its arguments,
// defaulting to ./... — a multichecker in the style of
// golang.org/x/tools/go/analysis/multichecker, built on the standard
// library only.
//
// Usage:
//
//	rmslint [-json FILE] [packages]
//
// Diagnostics print one per line in go vet's file:line:col format.
// With -json FILE, the same findings are additionally written to FILE
// as a machine-readable report (file/line/col, analyzer, message, and
// the suppression anchor when it differs from the position) for CI
// artifacts. The exit status is 1 when any diagnostic is reported, 2
// on driver errors. The //lint:allow, //lint:orderindependent and
// //lint:hotpath directives are documented in DESIGN.md "Determinism
// invariants".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"rmscale/internal/lint"
)

func main() {
	jsonPath := flag.String("json", "", "also write findings to this file as a JSON report")
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmslint:", err)
		os.Exit(2)
	}
	findings, err := lint.Run(dir, patterns, lint.DefaultConfig)
	for _, f := range findings {
		fmt.Println(f.String())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmslint:", err)
		os.Exit(2)
	}
	if *jsonPath != "" {
		if werr := writeReport(*jsonPath, findings); werr != nil {
			fmt.Fprintln(os.Stderr, "rmslint:", werr)
			os.Exit(2)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "rmslint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// report is the -json schema: versioned so CI consumers can evolve.
type report struct {
	Version  int            `json:"version"`
	Findings []lint.Finding `json:"findings"`
}

func writeReport(path string, findings []lint.Finding) error {
	if findings == nil {
		findings = []lint.Finding{} // a clean run serializes as [], not null
	}
	b, err := json.MarshalIndent(report{Version: 1, Findings: findings}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
