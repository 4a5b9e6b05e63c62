package lint_test

import (
	"go/token"
	"go/types"
	"os/exec"
	"strings"
	"testing"

	"rmscale/internal/lint"
	"rmscale/internal/lint/load"
)

// TestConfigMatchesModule keeps DefaultConfig honest: every concrete
// package it names must exist in the module (no stale entries rotting
// as packages move), and the enum it describes must actually declare
// the constants every switch is required to cover.
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
	check(cfg.Exhaustive, "Exhaustive")
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

	// The satellite claim that MapOrder/Exhaustive miss the service
	// sub-packages is pinned false here: the "rmscale/..." subtree
	// entries must keep covering them even if the lists are reworked.
	for _, p := range []string{"rmscale/internal/service/chaos", "rmscale/internal/service/loadgen"} {
		for _, l := range []struct {
			name string
			list []string
		}{{"MapOrder", cfg.MapOrder}, {"Exhaustive", cfg.Exhaustive}} {
			if !coveredBy(l.list, p) {
				t.Errorf("config %s does not cover %s", l.name, p)
			}
		}
	}

	if !exists[cfg.EnumPkg] {
		t.Fatalf("config EnumPkg %q is stale: no such package", cfg.EnumPkg)
	}
	if len(cfg.EnumConstants) != 7 {
		t.Errorf("the paper evaluates seven models; config lists %d enum constants", len(cfg.EnumConstants))
	}

	// Type-check the enum package and verify the configured constants
	// really are constants of the configured type.
	fset := token.NewFileSet()
	pkgs, _, err := load.Module(fset, "../..", cfg.EnumPkg)
	if err != nil {
		t.Fatal(err)
	}
	var enumPkg *types.Package
	for _, p := range pkgs {
		if p.Path == cfg.EnumPkg {
			enumPkg = p.Pkg
		}
	}
	if enumPkg == nil {
		t.Fatalf("load.Module did not return %s", cfg.EnumPkg)
	}
	tobj := enumPkg.Scope().Lookup(cfg.EnumType)
	if tobj == nil {
		t.Fatalf("config EnumType %s.%s does not exist", cfg.EnumPkg, cfg.EnumType)
	}
	if _, ok := tobj.(*types.TypeName); !ok {
		t.Fatalf("%s.%s is not a type", cfg.EnumPkg, cfg.EnumType)
	}
	declared := map[string]bool{}
	for _, name := range enumPkg.Scope().Names() {
		obj := enumPkg.Scope().Lookup(name)
		c, ok := obj.(*types.Const)
		if !ok {
			continue
		}
		if named, ok := types.Unalias(c.Type()).(*types.Named); ok && named.Obj() == tobj {
			declared[name] = true
		}
	}
	for _, want := range cfg.EnumConstants {
		if !declared[want] {
			t.Errorf("config enum constant %q is not declared as a %s.%s constant",
				want, cfg.EnumPkg, cfg.EnumType)
		}
	}
	// And the reverse: a constant added to the enum must be added to
	// the config (and therefore to every switch) too.
	for name := range declared {
		found := false
		for _, c := range cfg.EnumConstants {
			if c == name {
				found = true
			}
		}
		if !found {
			t.Errorf("enum constant %s.%s is missing from config EnumConstants", cfg.EnumPkg, name)
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
