// Command rmscale runs the paper's scalability experiments and prints
// the figures and tables of the evaluation section.
//
// Usage:
//
//	rmscale [flags] <command>
//
// Commands:
//
//	case1 .. case4   run one experiment case (Figures 2-5; case3 also
//	                 emits Figures 6 and 7)
//	all              run every case
//	ablation         run the ablation studies (suppression, estimator
//	                 layer, middleware, tuner, faults)
//	tables           print Tables 1-5 (the experiment configurations)
//	bench            run the benchmark-regression harness
//	                 (internal/perfbench) and print its JSON report;
//	                 with -check FILE, also gate the report against that
//	                 committed baseline and exit non-zero on regression
//
// Flags:
//
//	-fidelity smoke|quick|full   runtime budget (default quick)
//	-seed N                      master random seed (default 1)
//	-format table|chart|csv|json output format (default table)
//	-out DIR                     also save each figure as CSV+JSON files
//	-j N                         worker-pool size (default GOMAXPROCS)
//	-resume DIR                  checkpoint directory: journal completed
//	                             (model, k) points there, cache
//	                             simulations on disk, and resume an
//	                             interrupted run with the same
//	                             fidelity/seed from what it holds
//	-v                           log tuning progress per (model, k) and
//	                             runner job progress
//	-faults                      degraded mode: re-run the case under a
//	                             fixed RMS fault load (scheduler and
//	                             estimator crashes, message loss, link
//	                             outages) and emit the scalability-
//	                             under-churn comparison
//	-mtbf F                      with -faults: also crash resources with
//	                             this mean time between failures, 0=off
//	-repair F                    with -faults: resource repair time
//	                             (default 200)
//	-loss F                      with -faults: status update loss
//	                             probability
//	-chaos N                     no command: sweep N random fault
//	                             schedules across all RMS models under
//	                             the runtime invariant auditor; replay
//	                             each violation to confirm deterministic
//	                             reproduction, shrink it to a minimal
//	                             reproducer (written to -out as JSON)
//	                             and exit non-zero
//	-chaos-replay FILE           no command: re-run one chaos reproducer
//	                             JSON file and report its audit outcome
//	-cpuprofile FILE             write a CPU profile of the whole command
//	                             to FILE
//	-memprofile FILE             write an allocation profile to FILE when
//	                             the command finishes (read it with go
//	                             tool pprof -sample_index=alloc_objects)
//
// Results are deterministic in -seed: serial, parallel and
// cache-warm/resumed executions of the same case produce identical
// tables. A chaos sweep is likewise fully reproducible from
// (-seed, -chaos N).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"rmscale"
	"rmscale/internal/perfbench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rmscale:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("rmscale", flag.ContinueOnError)
	fidelity := fs.String("fidelity", "quick", "smoke, quick or full")
	seed := fs.Int64("seed", 1, "master random seed")
	format := fs.String("format", "table", "table, chart, csv or json")
	outDir := fs.String("out", "", "also write each figure as CSV and JSON into this directory")
	workers := fs.Int("j", 0, "worker-pool size; 0 picks GOMAXPROCS")
	resumeDir := fs.String("resume", "", "checkpoint directory for journaling, disk caching and resuming")
	verbose := fs.Bool("v", false, "log tuning progress")
	faults := fs.Bool("faults", false, "degraded mode: re-run the case under the churn fault load")
	mtbf := fs.Float64("mtbf", 0, "with -faults: resource mean time between failures (0 disables)")
	repair := fs.Float64("repair", 200, "with -faults: resource repair time")
	loss := fs.Float64("loss", 0, "with -faults: status update loss probability")
	chaosN := fs.Int("chaos", 0, "sweep this many random fault schedules under the invariant auditor")
	chaosReplay := fs.String("chaos-replay", "", "re-run one chaos reproducer JSON file")
	benchBaseline := fs.String("check", "", "with bench: baseline report to gate against")
	benchTol := fs.Float64("tolerance", 0.10, "with bench -check: allowed relative regression on max-gated metrics")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 0 {
		return fmt.Errorf("-j must be >= 0, got %d", *workers)
	}
	if (*mtbf != 0 || *loss != 0) && !*faults {
		return fmt.Errorf("-mtbf and -loss need -faults: they extend the degraded-mode fault load")
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); err == nil {
			err = perr
		}
	}()
	if *chaosN > 0 || *chaosReplay != "" {
		if fs.NArg() != 0 {
			return fmt.Errorf("-chaos and -chaos-replay take no command")
		}
		if *chaosReplay != "" {
			return replayChaos(*chaosReplay, out)
		}
		return runChaos(*chaosN, *seed, *workers, *outDir, *verbose, out)
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("need exactly one command: case1, case2, case3, case4, all, ablation, tables or bench")
	}
	cmd := fs.Arg(0)
	if *benchBaseline != "" && cmd != "bench" {
		return fmt.Errorf("-check needs the bench command")
	}

	if cmd == "tables" {
		return printTables(out)
	}
	if cmd == "bench" {
		return runBench(*benchBaseline, *benchTol, out)
	}

	fid, err := rmscale.ParseFidelity(*fidelity)
	if err != nil {
		return err
	}
	spec := rmscale.RunSpec{
		Fidelity: fid,
		Seed:     *seed,
		Workers:  *workers,
		Dir:      *resumeDir,
	}
	if *verbose {
		spec.Progress = func(model string, p rmscale.Point) {
			fmt.Fprintf(os.Stderr, "tuned %-8s k=%d G=%.1f E=%.3f feasible=%v evals=%d\n",
				model, p.K, p.G, p.Obs.Efficiency, p.Feasible, p.Evals)
		}
		spec.Log = os.Stderr
	}

	emit := func(ss *rmscale.SeriesSet) error {
		if *outDir != "" {
			if err := saveFigure(*outDir, ss); err != nil {
				return err
			}
		}
		switch *format {
		case "csv":
			return ss.WriteCSV(out)
		case "json":
			return ss.WriteJSON(out)
		case "chart":
			return ss.WriteChart(out, rmscale.ChartOptions{})
		case "table":
			return ss.WriteTable(out)
		default:
			return fmt.Errorf("unknown format %q", *format)
		}
	}

	emitCase := func(r *rmscale.CaseResult) error {
		if err := emit(r.Figure()); err != nil {
			return err
		}
		if r.Case == 3 {
			if err := emit(r.ThroughputFigure()); err != nil {
				return err
			}
			if err := emit(r.ResponseFigure()); err != nil {
				return err
			}
		}
		ranked := r.Figure().RankByFinalY()
		fmt.Fprintf(out, "most to least scalable: %v\n", ranked)
		for _, name := range r.Order {
			m, ok := r.Measurements[name]
			if !ok {
				continue
			}
			var infeasible, saturated []int
			for _, p := range m.Points {
				if !p.Feasible {
					infeasible = append(infeasible, p.K)
				}
				if p.Obs.Saturated {
					saturated = append(saturated, p.K)
				}
			}
			if len(infeasible) > 0 || len(saturated) > 0 {
				fmt.Fprintf(out, "  %-8s", name)
				if len(infeasible) > 0 {
					fmt.Fprintf(out, " efficiency band unreachable at k=%v", infeasible)
				}
				if len(saturated) > 0 {
					fmt.Fprintf(out, " RMS node saturated at k=%v", saturated)
				}
				fmt.Fprintln(out)
			}
		}
		return nil
	}

	// The degraded-mode fault load: the fixed churn preset, optionally
	// extended with gridsim's resource-level faults.
	churnModel := rmscale.ChurnFaults()
	churnModel.ResourceMTBF = *mtbf
	churnModel.RepairTime = *repair
	churnModel.UpdateLossProb = *loss
	emitChurn := func(r *rmscale.ChurnResult) error {
		fig, err := r.PsiFigure()
		if err != nil {
			return err
		}
		if err := emit(fig); err != nil {
			return err
		}
		tbl, err := r.Table()
		if err != nil {
			return err
		}
		_, err = fmt.Fprint(out, tbl)
		return err
	}

	switch cmd {
	case "case1", "case2", "case3", "case4":
		id := int(cmd[4] - '0')
		if *faults {
			r, err := rmscale.RunChurnSpec(id, churnModel, spec)
			if err != nil {
				return err
			}
			return emitChurn(r)
		}
		r, err := rmscale.RunCaseSpec(id, spec)
		if err != nil {
			return err
		}
		return emitCase(r)
	case "all":
		if *faults {
			for id := 1; id <= 4; id++ {
				r, err := rmscale.RunChurnSpec(id, churnModel, spec)
				if err != nil {
					return err
				}
				if err := emitChurn(r); err != nil {
					return err
				}
				fmt.Fprintln(out)
			}
			return nil
		}
		rs, err := rmscale.RunAllSpec(spec)
		if err != nil {
			return err
		}
		for _, r := range rs {
			if err := emitCase(r); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
		return nil
	case "ablation":
		rs, err := rmscale.RunAblations(fid, *seed)
		if err != nil {
			return err
		}
		for _, r := range rs {
			fmt.Fprintln(out, r.Table())
		}
		return nil
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// runBench runs the benchmark-regression harness and prints its JSON
// report. With a baseline it additionally gates the gated metrics
// (event counts exactly, allocation counts within the tolerance) and
// fails on any violation — wall-clock metrics are never gated, so the
// check is stable across machines.
func runBench(baseline string, tolerance float64, out io.Writer) error {
	rep, err := perfbench.Run()
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(out); err != nil {
		return err
	}
	if baseline == "" {
		return nil
	}
	f, err := os.Open(baseline)
	if err != nil {
		return err
	}
	base, err := perfbench.ReadReport(f)
	f.Close()
	if err != nil {
		return err
	}
	if bad := perfbench.Compare(base, rep, tolerance); len(bad) > 0 {
		for _, v := range bad {
			fmt.Fprintln(os.Stderr, "bench:", v)
		}
		if base.Go != rep.Go {
			fmt.Fprintf(os.Stderr, "bench: note: baseline was recorded with %s, this run uses %s; allocation counts shift across toolchains — refresh the baseline (make bench) if the code is unchanged\n", base.Go, rep.Go)
		}
		return fmt.Errorf("bench: %d metric(s) regressed against %s", len(bad), baseline)
	}
	fmt.Fprintf(os.Stderr, "bench: all gated metrics within budget of %s\n", baseline)
	return nil
}

// runChaos sweeps n random fault schedules across all RMS models under
// the runtime invariant auditor, shrinking every violation to a
// minimal reproducer. Any violation makes the sweep fail, so a CI step
// invoking it turns invariant drift into a red build.
func runChaos(n int, seed int64, workers int, outDir string, verbose bool, out io.Writer) error {
	opts := rmscale.ChaosOptions{
		Schedules: n,
		Seed:      seed,
		Workers:   workers,
		OutDir:    outDir,
	}
	if verbose {
		opts.Log = os.Stderr
	}
	res, err := rmscale.ChaosSweep(opts)
	if err != nil {
		return err
	}
	if res.Clean() {
		fmt.Fprintf(out, "chaos: %d schedules swept, no invariant violations\n", res.Ran)
		return nil
	}
	for _, f := range res.Findings {
		fmt.Fprintf(out, "chaos: %s (%s) violated %v, fingerprint %s, deterministic=%v\n",
			f.Schedule.Name, f.Schedule.Model, f.Report.Kinds, f.Report.Fingerprint, f.Deterministic)
		fmt.Fprintf(out, "chaos: shrunk %d -> %d scripted events in %d runs\n",
			f.Schedule.Events(), f.Shrunk.Events(), f.ShrinkEvals)
		for _, v := range f.Report.Violations {
			fmt.Fprintf(out, "  %s\n", v)
		}
		if f.File != "" {
			fmt.Fprintf(out, "chaos: reproducer written to %s\n", f.File)
		}
	}
	return fmt.Errorf("chaos: %d of %d schedules violated runtime invariants", len(res.Findings), res.Ran)
}

// replayChaos re-runs one reproducer file and reports its audit
// outcome; a still-violating reproducer exits non-zero.
func replayChaos(path string, out io.Writer) error {
	s, err := rmscale.ReadChaosSchedule(path)
	if err != nil {
		return err
	}
	r, err := rmscale.RunChaosSchedule(s)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "chaos: %s (%s): %d checks, %d violation(s)\n",
		s.Name, s.Model, r.Checks, len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(out, "  %s\n", v)
	}
	if r.Violating() {
		fmt.Fprintf(out, "chaos: kinds %v, fingerprint %s\n", r.Kinds, r.Fingerprint)
		return fmt.Errorf("chaos: %s still violates %v", s.Name, r.Kinds)
	}
	return nil
}

// saveFigure writes one figure as CSV and JSON files named after its
// title. Each file is written atomically (temp file + rename) so an
// interrupted run never leaves a truncated result file behind.
func saveFigure(dir string, ss *rmscale.SeriesSet) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	slug := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return '-'
		}
	}, ss.Title)
	slug = strings.Trim(slug, "-")
	for len(slug) > 0 && strings.Contains(slug, "--") {
		slug = strings.ReplaceAll(slug, "--", "-")
	}
	var csvBuf bytes.Buffer
	if err := ss.WriteCSV(&csvBuf); err != nil {
		return err
	}
	if err := rmscale.WriteFileAtomic(filepath.Join(dir, slug+".csv"), csvBuf.Bytes(), 0o644); err != nil {
		return err
	}
	var jsonBuf bytes.Buffer
	if err := ss.WriteJSON(&jsonBuf); err != nil {
		return err
	}
	return rmscale.WriteFileAtomic(filepath.Join(dir, slug+".json"), jsonBuf.Bytes(), 0o644)
}

func printTables(out io.Writer) error {
	if err := rmscale.ModelRoster(out); err != nil {
		return err
	}
	fmt.Fprintln(out)
	if err := rmscale.PaperConstantsTable(out); err != nil {
		return err
	}
	fmt.Fprintln(out)
	return rmscale.ScalingTables(out)
}
