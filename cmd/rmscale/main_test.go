package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rmscale"
)

func TestTablesCommand(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"tables"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"T_CPU", "Table 2", "Table 5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tables output missing %q", want)
		}
	}
}

func TestCase1Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("case run is slow")
	}
	var buf bytes.Buffer
	if err := run([]string{"-fidelity", "smoke", "case1"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 2", "CENTRAL", "LOWEST", "most to least scalable"} {
		if !strings.Contains(out, want) {
			t.Fatalf("case1 output missing %q:\n%s", want, out)
		}
	}
}

func TestCase3EmitsThreeFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("case run is slow")
	}
	var buf bytes.Buffer
	if err := run([]string{"-fidelity", "smoke", "case3"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 4", "Throughput", "response"} {
		if !strings.Contains(out, want) {
			t.Fatalf("case3 output missing %q", want)
		}
	}
}

func TestCSVFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("case run is slow")
	}
	var buf bytes.Buffer
	if err := run([]string{"-fidelity", "smoke", "-format", "csv", "case2"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "k,CENTRAL,LOWEST") {
		t.Fatalf("CSV header missing:\n%s", buf.String())
	}
}

func TestJSONFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("case run is slow")
	}
	var buf bytes.Buffer
	if err := run([]string{"-fidelity", "smoke", "-format", "json", "case4"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"series\"") {
		t.Fatal("JSON output missing series")
	}
}

func TestAblationCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation is slow")
	}
	var buf bytes.Buffer
	if err := run([]string{"-fidelity", "smoke", "ablation"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"suppression", "estimator", "middleware", "anneal", "grid"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("ablation output missing %q", want)
		}
	}
}

func TestErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{}, &buf); err == nil {
		t.Error("missing command accepted")
	}
	if err := run([]string{"frobnicate"}, &buf); err == nil {
		t.Error("unknown command accepted")
	}
	if err := run([]string{"-fidelity", "bogus", "case1"}, &buf); err == nil {
		t.Error("bad fidelity accepted")
	}
	if err := run([]string{"-format", "bogus", "-fidelity", "smoke", "case1"}, &buf); err == nil {
		t.Error("bad format accepted")
	}
}

func TestSaveFigure(t *testing.T) {
	dir := t.TempDir()
	ss := &rmscale.SeriesSet{Title: "Figure 9: Test / Case (x)", XLabel: "k"}
	ss.Add(rmscale.Series{Name: "m", X: []float64{1}, Y: []float64{2}})
	if err := saveFigure(dir, ss); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"figure-9-test-case-x.csv", "figure-9-test-case-x.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("missing %s: %v", name, err)
		}
	}
}

func TestChartFormatSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("case run is slow")
	}
	var buf bytes.Buffer
	if err := run([]string{"-fidelity", "smoke", "-format", "chart", "case4"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "legend:") {
		t.Fatal("chart output missing legend")
	}
}

func TestWorkerAndResumeFlagParsing(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-j", "-1", "-fidelity", "smoke", "case4"}, &buf); err == nil {
		t.Error("negative -j accepted")
	}
	if err := run([]string{"-j", "bogus", "-fidelity", "smoke", "case4"}, &buf); err == nil {
		t.Error("non-numeric -j accepted")
	}
	if err := run([]string{"-par-workers", "-1", "-fidelity", "smoke", "case4"}, &buf); err == nil {
		t.Error("negative -par-workers accepted")
	}
	// -j and -resume parse and thread through on the tables command
	// path too (they are simply unused there).
	if err := run([]string{"-j", "2", "-resume", t.TempDir(), "tables"}, &buf); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenFaultFreeOutput pins the smoke output of case 1 and case 4
// against goldens captured before the fault-tolerance layer existed:
// with a zero-valued FaultModel the experiment tables must stay
// byte-identical — the fault machinery may only change runs that
// actually arm it.
func TestGoldenFaultFreeOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("case run is slow")
	}
	for _, c := range []string{"case1", "case4"} {
		c := c
		t.Run(c, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c+"_smoke_seed1.golden"))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := run([]string{"-fidelity", "smoke", "-seed", "1", "-format", "csv", c}, &buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("fault-free %s output diverged from the pre-fault golden:\n--- got ---\n%s\n--- want ---\n%s",
					c, buf.Bytes(), want)
			}
		})
	}
}

// TestChurnCommand runs the degraded-mode experiment at smoke fidelity
// and checks the churn table renders a row for all seven models.
func TestChurnCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("churn run is slow (two full case runs)")
	}
	var buf bytes.Buffer
	if err := run([]string{"-fidelity", "smoke", "-faults", "case4"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Scalability under churn") {
		t.Fatalf("churn output missing title:\n%s", out)
	}
	for _, model := range rmscale.ModelNames() {
		if !strings.Contains(out, model+"*") {
			t.Errorf("churn psi figure missing degraded series for %s", model)
		}
	}
	if !strings.Contains(out, "psi*(k)") || !strings.Contains(out, "retry*") {
		t.Fatalf("churn comparison table missing:\n%s", out)
	}
}

// TestFaultFlagValidation: the gridsim-parity fault knobs only make
// sense as extensions of the degraded-mode fault load.
func TestFaultFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-mtbf", "500", "tables"}, &buf); err == nil {
		t.Error("-mtbf without -faults accepted")
	}
	if err := run([]string{"-loss", "0.1", "tables"}, &buf); err == nil {
		t.Error("-loss without -faults accepted")
	}
}

// TestSmokeResume runs a case into a checkpoint directory, then reruns
// with -resume and checks the second pass adopts the journal and emits
// byte-identical output.
func TestSmokeResume(t *testing.T) {
	if testing.Short() {
		t.Skip("case run is slow")
	}
	dir := t.TempDir()
	var first bytes.Buffer
	if err := run([]string{"-fidelity", "smoke", "-j", "2", "-resume", dir, "case4"}, &first); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"journal.jsonl", "runstate.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("checkpoint artifact missing: %v", err)
		}
	}
	var second bytes.Buffer
	if err := run([]string{"-fidelity", "smoke", "-j", "2", "-resume", dir, "case4"}, &second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatalf("resumed output differs:\n--- first ---\n%s\n--- second ---\n%s", &first, &second)
	}
	// Resuming under different parameters must refuse.
	var third bytes.Buffer
	if err := run([]string{"-fidelity", "smoke", "-seed", "2", "-resume", dir, "case4"}, &third); err == nil {
		t.Error("resume with a different seed accepted")
	}
}

// TestProfileFlags: a smoke run with -cpuprofile and -memprofile writes
// both profiles, and neither is empty.
func TestProfileFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("case run is slow")
	}
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var buf bytes.Buffer
	if err := run([]string{"-fidelity", "smoke", "-seed", "5", "-cpuprofile", cpu, "-memprofile", mem, "case4"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", filepath.Base(path))
		}
	}
	if err := run([]string{"-cpuprofile", filepath.Join(dir, "missing", "cpu.pprof"), "tables"}, &buf); err == nil {
		t.Error("unwritable -cpuprofile path accepted")
	}
}
