package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rmscale"
	"rmscale/internal/stats"
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

// TestUnknownFormatFailsFirst: an unknown -format is refused with the
// other flag checks, before the case runs, so it leaves nothing in the
// -resume directory.
func TestUnknownFormatFailsFirst(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	err := run([]string{"-format", "xml", "-fidelity", "smoke", "-resume", dir, "case1"}, &buf)
	if err == nil || !strings.Contains(err.Error(), `unknown format "xml"`) {
		t.Fatalf("err = %v, want an unknown-format error", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("refused run left %s in the -resume directory", e.Name())
	}
}

func TestSaveFigure(t *testing.T) {
	dir := t.TempDir()
	ss := &rmscale.SeriesSet{Title: "Figure 9: Test / Case (x)", XLabel: "k"}
	ss.Add(stats.Series{Name: "m", X: []float64{1}, Y: []float64{2}})
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
	// -j and -resume parse and thread through on the tables command
	// path too (they are simply unused there).
	if err := run([]string{"-j", "2", "-resume", t.TempDir(), "tables"}, &buf); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenFaultFreeOutput pins the bytes of fault-free commands. The
// case 1 and case 4 goldens were captured before the fault-tolerance
// layer existed: with a zero-valued FaultModel the experiment tables
// must stay byte-identical — the fault machinery may only change runs
// that actually arm it. The tables and ablation goldens pin the model
// roster and the ablation rows, which run through the same audited
// simulation path as the cases.
func TestGoldenFaultFreeOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("case run is slow")
	}
	for _, c := range []struct {
		name, golden string
		args         []string
	}{
		{"case1", "case1_smoke_seed1.golden", []string{"-fidelity", "smoke", "-seed", "1", "-format", "csv", "case1"}},
		{"case4", "case4_smoke_seed1.golden", []string{"-fidelity", "smoke", "-seed", "1", "-format", "csv", "case4"}},
		{"tables", "tables.golden", []string{"tables"}},
		{"ablation", "ablation_smoke_seed1.golden", []string{"-fidelity", "smoke", "-seed", "1", "ablation"}},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.golden))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := run(c.args, &buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("%s output diverged from its golden %s:\n--- got ---\n%s\n--- want ---\n%s",
					c.name, c.golden, buf.Bytes(), want)
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

// TestSmokeResume runs a case into a run directory, then reruns with
// -resume and checks the second pass replays the cache and emits
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
	for _, name := range []string{"cache", "runstate.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("run directory entry missing: %v", err)
		}
	}
	var second bytes.Buffer
	if err := run([]string{"-fidelity", "smoke", "-j", "2", "-resume", dir, "case4"}, &second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatalf("resumed output differs:\n--- first ---\n%s\n--- second ---\n%s", &first, &second)
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
