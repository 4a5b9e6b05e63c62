package lint

import "sort"

// Config is the single data-driven description of where each
// invariant applies. Everything the suite knows about the module —
// which packages are simulation-visible, which form the deterministic
// kernel, what the RMS-model enum is called and which constants it
// must always cover — lives here, so extending the module means
// editing one literal, and the config meta-test keeps the lists
// honest against the packages that actually exist.
type Config struct {
	// SimVisible lists the packages whose behaviour is visible inside
	// a simulation run: virtual time only and named RNG streams only,
	// whether the source is referenced here or reached through calls
	// (detertaint). Wall-clock reads or global RNG draws here would
	// break byte-identical reproducibility.
	SimVisible []string

	// Kernel lists the deterministic-kernel packages where goroutines,
	// channels and sync primitives are banned (nokernelgoroutines):
	// concurrency belongs to internal/runner, which parallelizes whole
	// single-threaded simulations.
	Kernel []string

	// MapOrder lists the packages checked for order-dependent map
	// iteration (mapiterorder). "rmscale/..." style entries apply the
	// analyzer to a whole subtree.
	MapOrder []string

	// Exhaustive lists the packages whose switches over the RMS-model
	// enum must cover every model (rmsexhaustive).
	Exhaustive []string

	// HotAlloc lists the packages where //lint:hotpath allocation
	// budgets are enforced (hotalloc). Marks can appear anywhere the
	// list covers; packages without marks cost one map lookup.
	HotAlloc []string

	// LockSafe lists the concurrent service-layer packages held to the
	// locking discipline (locksafe): no blocking while a mutex is
	// held, deferred unlocks on multi-return functions, guarded-field
	// access only under the guard or in *Locked methods.
	LockSafe []string

	// Exempt maps internal packages that deliberately sit outside
	// every curated analyzer list to the reason why. The config
	// meta-test fails when a module package is neither classified nor
	// exempted, so adding a package forces a conscious decision.
	// "m/..." entries exempt a subtree.
	Exempt map[string]string

	// EnumPkg, EnumType and EnumConstants describe the RMS-model enum:
	// switches over EnumPkg.EnumType must either cover every constant
	// named in EnumConstants or carry a panicking default.
	EnumPkg       string
	EnumType      string
	EnumConstants []string
}

// DefaultConfig is the module's invariant map.
var DefaultConfig = Config{
	SimVisible: []string{
		"rmscale/internal/sim",
		"rmscale/internal/grid",
		"rmscale/internal/rms",
		"rmscale/internal/routing",
		"rmscale/internal/scale",
		"rmscale/internal/anneal",
		"rmscale/internal/workload",
		"rmscale/internal/topology",
		"rmscale/internal/experiments",
		"rmscale/internal/stats",
		"rmscale/internal/audit",
		"rmscale/internal/audit/chaos",
		// The daemon, its client and its harnesses never let wall time
		// or global RNG leak into simulation results; their few
		// legitimate real-time reads (request timestamps, latency
		// measurement, retry backoff) carry //lint:allow annotations at
		// the site.
		"rmscale/internal/service",
		"rmscale/internal/service/client",
		"rmscale/internal/service/loadgen",
		"rmscale/internal/service/chaos",
		// The crash-consistency harness replays the persistence layer on
		// simulated disks; its results must be seed-reproducible, so it
		// runs on a frozen clock and never touches global RNG.
		"rmscale/internal/service/crash",
	},
	Kernel: []string{
		"rmscale/internal/sim",
		"rmscale/internal/grid",
		"rmscale/internal/rms",
		"rmscale/internal/routing",
		"rmscale/internal/scale",
		"rmscale/internal/anneal",
		"rmscale/internal/workload",
		"rmscale/internal/topology",
		"rmscale/internal/stats",
		// The auditor rides inside the simulation, so it is held to the
		// kernel's no-concurrency discipline; the chaos harness above it
		// drives the runner pool and is only simulation-visible.
		"rmscale/internal/audit",
		// The service daemon is concurrent by design — worker shards,
		// HTTP handlers, a load generator — but every simulation it
		// executes stays single-threaded underneath. Listing it here
		// forces each concurrency site to justify itself with an
		// annotation instead of letting sync primitives creep in
		// unreviewed. The client starts no goroutine: each call runs
		// its exchanges on its caller's goroutine, and its one sync
		// primitive is the mutex over the process-wide set of idle
		// connections, annotated at the import.
		"rmscale/internal/service",
		"rmscale/internal/service/client",
		"rmscale/internal/service/loadgen",
		"rmscale/internal/service/chaos",
		// Crash enumeration is deliberately single-threaded: one op
		// trace, one crash point at a time. Concurrency here would
		// destroy the prefix-exact replay the harness depends on.
		"rmscale/internal/service/crash",
	},
	// Map-iteration order can leak into any rendered table, figure,
	// JSON file or checkpoint, so the whole module is covered — the
	// "rmscale/..." subtree entry includes internal/service/chaos,
	// internal/service/client and internal/service/loadgen (verified by
	// TestConfigMatchesModule).
	MapOrder:   []string{"rmscale/..."},
	Exhaustive: []string{"rmscale/..."},

	// Hot-path allocation budgets can be declared anywhere; the marks
	// currently live in internal/sim (kernel ops, Ticker), internal/grid
	// (per-event message fabric) and internal/service (dedup fast path).
	HotAlloc: []string{"rmscale/..."},

	// The locking discipline governs the concurrent service layer; the
	// simulation kernel below it bans sync primitives outright
	// (nokernelgoroutines), so listing it here would be vacuous.
	LockSafe: []string{
		"rmscale/internal/service",
		"rmscale/internal/service/client",
		"rmscale/internal/service/loadgen",
		"rmscale/internal/service/chaos",
		"rmscale/internal/service/crash",
	},

	// Packages deliberately outside the curated SimVisible/Kernel/
	// LockSafe classification, with the reason on record. The wildcard
	// analyzers (mapiterorder, rmsexhaustive, hotalloc) still cover
	// them.
	Exempt: map[string]string{
		"rmscale/internal/runner":     "parallelizes whole single-threaded simulations; wall-clock scheduling and worker goroutines are its job, and sim-visibility stops at its API",
		"rmscale/internal/fsutil/...": "filesystem plumbing beneath the store and journal (and the simulated crash filesystem that models it); blocking IO is its purpose and no simulation state flows through it",
		"rmscale/internal/lint/...":   "the analyzers themselves; never linked into a simulation binary",
	},

	EnumPkg:  "rmscale/internal/rms",
	EnumType: "ID",
	EnumConstants: []string{
		"IDCentral", "IDLowest", "IDReserve", "IDAuction",
		"IDSenderInit", "IDReceiverInit", "IDSymmetric",
	},
}

// Classified reports how the config covers pkgPath: curated means a
// SimVisible/Kernel/LockSafe entry names it (the lists
// that encode a conscious decision per package — the wildcard-based
// MapOrder, Exhaustive and HotAlloc lists do not count), exempt means
// an Exempt entry opts it out. The config meta-test requires every
// internal package to be one or the other.
//
//lint:allow deadcode test support: the config meta-test TestInternalPackagesClassified is its only caller
func (cfg Config) Classified(pkgPath string) (curated, exempt bool) {
	for _, list := range [][]string{cfg.SimVisible, cfg.Kernel, cfg.LockSafe} {
		if appliesTo(list, pkgPath) {
			curated = true
		}
	}
	ex := make([]string, 0, len(cfg.Exempt))
	for e := range cfg.Exempt {
		ex = append(ex, e)
	}
	sort.Strings(ex)
	return curated, appliesTo(ex, pkgPath)
}

// appliesTo reports whether an entry list covers the package path.
// An entry "m/..." covers m and everything below it, and "..." covers
// every package.
func appliesTo(entries []string, pkgPath string) bool {
	for _, e := range entries {
		if e == pkgPath || e == "..." {
			return true
		}
		if root, ok := cutDots(e); ok {
			if pkgPath == root || len(pkgPath) > len(root) && pkgPath[:len(root)+1] == root+"/" {
				return true
			}
		}
	}
	return false
}

func cutDots(e string) (string, bool) {
	const suffix = "/..."
	if len(e) > len(suffix) && e[len(e)-len(suffix):] == suffix {
		return e[:len(e)-len(suffix)], true
	}
	return "", false
}
