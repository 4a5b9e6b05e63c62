package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"rmscale"
	"rmscale/internal/audit/chaos"
)

func TestChaosSweepCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep is slow")
	}
	var buf bytes.Buffer
	if err := run([]string{"-chaos", "4", "-seed", "1", "-j", "2"}, &buf); err != nil {
		t.Fatalf("fault-only chaos sweep failed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "4 schedules swept, no invariant violations") {
		t.Fatalf("unexpected sweep output:\n%s", buf.String())
	}
}

func TestChaosFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-chaos", "2", "case1"}, &buf); err == nil {
		t.Fatal("-chaos with a command accepted")
	}
	if err := run([]string{"-chaos-replay", "nope.json", "all"}, &buf); err == nil {
		t.Fatal("-chaos-replay with a command accepted")
	}
	if err := run([]string{"-chaos-replay", filepath.Join(t.TempDir(), "missing.json")}, &buf); err == nil {
		t.Fatal("missing reproducer accepted")
	}
}

func TestChaosReplayCommand(t *testing.T) {
	// A violating reproducer (seeded corruption) must replay with a
	// non-zero exit and print its violations; writing it exercises the
	// same JSON format the sweep emits.
	dir := t.TempDir()
	s := rmscale.ChaosSchedule{
		Name:        "cli-repro",
		Model:       "LOWEST",
		Seed:        11,
		Clusters:    2,
		ClusterSize: 4,
		Horizon:     400,
		Drain:       200,
		Util:        0.7,
		Corruptions: []chaos.Corruption{{Kind: "negative-overhead", At: 150}},
	}
	path := filepath.Join(dir, "repro.json")
	if err := s.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := run([]string{"-chaos-replay", path}, &buf)
	if err == nil {
		t.Fatal("violating reproducer replayed with a clean exit")
	}
	out := buf.String()
	for _, want := range []string{"cli-repro", "violation", "accounting", "fingerprint"} {
		if !strings.Contains(out, want) {
			t.Fatalf("replay output missing %q:\n%s", want, out)
		}
	}

	// A fault-only schedule replays clean.
	s.Corruptions = nil
	s.SchedCrashes = []chaos.Crash{{Target: 0, At: 100, Repair: 80}}
	if err := s.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := run([]string{"-chaos-replay", path}, &buf); err != nil {
		t.Fatalf("clean reproducer failed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "0 violation(s)") {
		t.Fatalf("unexpected replay output:\n%s", buf.String())
	}
}
