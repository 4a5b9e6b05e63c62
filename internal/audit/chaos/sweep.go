package chaos

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"rmscale/internal/fsutil"
	"rmscale/internal/runner"
)

// Options configures a chaos sweep.
type Options struct {
	// Schedules is how many random schedules to generate and run.
	Schedules int
	// Seed roots the schedule generator; a (Seed, Schedules) pair
	// names a fully reproducible sweep.
	Seed int64
	// Workers sizes the runner pool; <= 0 picks GOMAXPROCS.
	Workers int
	// Replays is how many times each violating schedule is re-run to
	// confirm deterministic reproduction; default 2.
	Replays int
	// ShrinkBudget bounds simulation runs spent shrinking one
	// violating schedule; default 200.
	ShrinkBudget int
	// OutDir, when non-empty, receives one <name>.json minimal
	// reproducer per violating schedule.
	OutDir string
	// Log, when non-nil, receives human-readable progress lines.
	Log io.Writer
	// Context cancels the sweep early; nil means Background.
	Context context.Context
}

// Finding is one violating schedule with its replay and shrink
// evidence.
type Finding struct {
	Schedule Schedule
	Report   Report
	// ReplayFingerprints are the fingerprints of the confirmation
	// re-runs; Deterministic is true when all of them (and the
	// original) agree.
	ReplayFingerprints []string
	Deterministic      bool
	Shrunk             Schedule
	ShrunkReport       Report
	ShrinkEvals        int
	// File is the written reproducer path ("" without OutDir).
	File string
}

// Result summarizes a sweep.
type Result struct {
	Ran      int
	Findings []Finding
}

// Clean reports whether the sweep found no violations.
func (r Result) Clean() bool { return len(r.Findings) == 0 }

// Sweep generates opts.Schedules random fault schedules, runs each
// against an audited engine on the runner pool, then sequentially
// replays, shrinks and (optionally) serializes every violating
// schedule. It returns an error only for infrastructure failures; the
// caller decides what violations mean via Result.Clean.
func Sweep(opts Options) (Result, error) {
	if opts.Schedules <= 0 {
		return Result{}, fmt.Errorf("chaos: Schedules must be positive, got %d", opts.Schedules)
	}
	if opts.Replays <= 0 {
		opts.Replays = 2
	}
	if opts.ShrinkBudget <= 0 {
		opts.ShrinkBudget = 200
	}
	logf := func(format string, args ...any) {
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, format+"\n", args...)
		}
	}

	schedules := make([]Schedule, opts.Schedules)
	reports := make([]Report, opts.Schedules)
	run, err := runner.Start(runner.Options{
		Workers: opts.Workers,
		Context: opts.Context,
	})
	if err != nil {
		return Result{}, err
	}
	for i := range schedules {
		i := i
		schedules[i] = Generate(opts.Seed, i)
		run.Pool.Submit(runner.Task{
			ID: schedules[i].Name,
			Run: func(*runner.TaskCtx) error {
				r, err := Run(schedules[i])
				if err != nil {
					return err
				}
				reports[i] = r
				return nil
			},
		})
	}
	if err := run.Wait(); err != nil {
		return Result{}, err
	}

	res := Result{Ran: opts.Schedules}
	for i, r := range reports {
		if !r.Violating() {
			continue
		}
		s := schedules[i]
		logf("chaos: %s (%s) violated %v, fingerprint %s", s.Name, s.Model, r.Kinds, r.Fingerprint)
		f := Finding{Schedule: s, Report: r, Deterministic: true}
		for rep := 0; rep < opts.Replays; rep++ {
			rr, err := Run(s)
			if err != nil {
				return res, err
			}
			f.ReplayFingerprints = append(f.ReplayFingerprints, rr.Fingerprint)
			if rr.Fingerprint != r.Fingerprint {
				f.Deterministic = false
			}
		}
		if !f.Deterministic {
			logf("chaos: %s does NOT reproduce deterministically: %v vs %s",
				s.Name, f.ReplayFingerprints, r.Fingerprint)
		}
		f.Shrunk, f.ShrunkReport, f.ShrinkEvals = Shrink(s, r, opts.ShrinkBudget)
		logf("chaos: %s shrunk %d -> %d events in %d runs",
			s.Name, s.Events(), f.Shrunk.Events(), f.ShrinkEvals)
		if opts.OutDir != "" {
			if err := os.MkdirAll(opts.OutDir, 0o755); err != nil {
				return res, err
			}
			path := filepath.Join(opts.OutDir, s.Name+".json")
			if err := f.Shrunk.WriteJSON(path); err != nil {
				return res, err
			}
			f.File = path
			logf("chaos: reproducer written to %s", path)
		}
		res.Findings = append(res.Findings, f)
	}
	return res, nil
}

// WriteJSON serializes the schedule as an indented, atomically written
// reproducer file.
func (s Schedule) WriteJSON(path string) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return fsutil.WriteFileAtomic(path, append(b, '\n'), 0o644)
}

// ReadJSON loads and validates a schedule reproducer.
func ReadJSON(path string) (Schedule, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Schedule{}, err
	}
	var s Schedule
	if err := json.Unmarshal(b, &s); err != nil {
		return Schedule{}, fmt.Errorf("chaos: parsing %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return Schedule{}, fmt.Errorf("chaos: %s: %w", path, err)
	}
	return s, nil
}
