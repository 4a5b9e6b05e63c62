package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"rmscale/internal/lint"
)

// TestRegistersAllSevenAnalyzers pins the multichecker's roster: the
// suite the binary runs must contain exactly the three local
// map-order, concurrency and model-coverage analyzers plus the four
// call-graph analyzers, in their documented order.
func TestRegistersAllSevenAnalyzers(t *testing.T) {
	want := []string{
		"mapiterorder", "nokernelgoroutines", "rmsexhaustive",
		"detertaint", "hotalloc", "locksafe", "deadcode",
	}
	suite := lint.Suite(lint.DefaultConfig)
	if len(suite) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(suite), len(want))
	}
	for i, a := range suite {
		if a.Name != want[i] {
			t.Errorf("analyzer %d is %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no doc", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %q has no Run", a.Name)
		}
	}
}

// TestJSONReportShape pins the -json report schema the CI artifact
// consumers depend on: version field, findings array (never null),
// and anchor fields only when the anchor differs from the position.
func TestJSONReportShape(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lint_report.json")
	in := []lint.Finding{{
		File: "a.go", Line: 3, Col: 2, Analyzer: "locksafe", Message: "held",
		AnchorFile: "a.go", AnchorLine: 1,
	}}
	if err := writeReport(path, in); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if r.Version != 1 || len(r.Findings) != 1 || r.Findings[0] != in[0] {
		t.Fatalf("report round-trip mismatch: %+v", r)
	}

	if err := writeReport(path, nil); err != nil {
		t.Fatal(err)
	}
	b, _ = os.ReadFile(path)
	if !bytes.Contains(b, []byte(`"findings": []`)) {
		t.Fatalf("clean report must serialize findings as [], got:\n%s", b)
	}
}

// TestSelfClean runs the driver over this package: the lint gate the
// CI applies to the whole module must at minimum hold for the linter
// itself.
func TestSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the dependency graph")
	}
	findings, err := lint.Run(".", []string{"."}, lint.DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("rmslint is not self-clean: %s", f)
	}
}
