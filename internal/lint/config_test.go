package lint_test

import (
	"os/exec"
	"strings"
	"testing"

	"rmscale/internal/lint"
)

// TestConfigMatchesModule keeps DefaultConfig honest: every concrete
// package it names must exist in the module (no stale entries rotting
// as packages move).
func TestConfigMatchesModule(t *testing.T) {
	out, err := exec.Command("go", "list", "rmscale/...").Output()
	if err != nil {
		t.Fatal(err)
	}
	exists := map[string]bool{}
	for _, p := range strings.Fields(string(out)) {
		exists[p] = true
	}

	cfg := lint.DefaultConfig
	check := func(list []string, name string) {
		t.Helper()
		if len(list) == 0 {
			t.Errorf("config %s is empty", name)
		}
		for _, e := range list {
			if strings.HasSuffix(e, "/...") {
				root := strings.TrimSuffix(e, "/...")
				found := exists[root]
				for p := range exists {
					if strings.HasPrefix(p, root+"/") {
						found = true
					}
				}
				if !found {
					t.Errorf("config %s entry %q matches no module package", name, e)
				}
				continue
			}
			if !exists[e] {
				t.Errorf("config %s entry %q is stale: no such package", name, e)
			}
		}
	}
	check(cfg.SimVisible, "SimVisible")
	check(cfg.Kernel, "Kernel")
	check(cfg.MapOrder, "MapOrder")
	check(cfg.HotAlloc, "HotAlloc")
	check(cfg.LockSafe, "LockSafe")
	exemptEntries := make([]string, 0, len(cfg.Exempt))
	for e, why := range cfg.Exempt {
		exemptEntries = append(exemptEntries, e)
		if strings.TrimSpace(why) == "" {
			t.Errorf("config Exempt entry %q has no reason", e)
		}
	}
	check(exemptEntries, "Exempt")

	// The claim that MapOrder misses the service sub-packages is
	// pinned false here: the "rmscale/..." subtree entry must keep
	// covering them even if the list is reworked.
	for _, p := range []string{"rmscale/internal/service/chaos", "rmscale/internal/service/loadgen"} {
		if !coveredBy(cfg.MapOrder, p) {
			t.Errorf("config MapOrder does not cover %s", p)
		}
	}
}

// coveredBy mirrors the config's appliesTo semantics for the test's
// own assertions: exact entries and "m/..." subtree entries.
func coveredBy(entries []string, pkg string) bool {
	for _, e := range entries {
		if e == pkg {
			return true
		}
		if root, ok := strings.CutSuffix(e, "/..."); ok {
			if pkg == root || strings.HasPrefix(pkg, root+"/") {
				return true
			}
		}
	}
	return false
}

// TestInternalPackagesClassified forces a conscious decision per
// package: every rmscale/internal package must either appear in a
// curated analyzer list (SimVisible, Kernel, LockSafe — the wildcard
// lists don't count) or carry an explicit Exempt entry with a reason.
// Adding a package to the module without classifying it fails here.
func TestInternalPackagesClassified(t *testing.T) {
	out, err := exec.Command("go", "list", "rmscale/internal/...").Output()
	if err != nil {
		t.Fatal(err)
	}
	cfg := lint.DefaultConfig
	for _, pkg := range strings.Fields(string(out)) {
		curated, exempt := cfg.Classified(pkg)
		switch {
		case !curated && !exempt:
			t.Errorf("package %s is in no curated analyzer list and has no Exempt entry; classify it in lint.DefaultConfig", pkg)
		case curated && exempt:
			t.Errorf("package %s is both in a curated analyzer list and Exempt; pick one", pkg)
		}
	}
}
