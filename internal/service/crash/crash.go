// Package crash is the crash-consistency harness: it runs canonical
// workloads against rmscaled's two stores, the submission journal and
// the result store, on the simulated filesystem
// (internal/fsutil/crashfs), enumerates every crash point in the
// recorded op trace plus torn- and garbled-tail variants of the final
// op, reopens both stores on each materialized disk image, and asserts
// the recovery invariants DESIGN.md §7 promises, for each store:
//
//   - recovery always succeeds: no crash image degrades a store at
//     open;
//   - every entry a store serves was written, byte-identical —
//     corrupt, misattributed or wrong bytes are never served;
//   - acknowledged, durably-stored entries are never lost (the
//     invariant that catches a missing fsync or parent-dir fsync),
//     except where the workload itself weakened the guarantee (GC
//     eviction, deliberate corruption);
//   - recovery is idempotent: recovering twice from any image leaves
//     the disk byte-identical to recovering once, and the second open
//     repairs nothing;
//   - re-stored entries round-trip byte-identical to the fault-free
//     reference.
//
// Everything is deterministic — fixed clock, generated payloads, no
// randomness — so a failure report names an exact (workload, crash
// op, variant) triple that replays identically every run.
package crash

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"rmscale/internal/fsutil/crashfs"
	"rmscale/internal/service"
)

// svcDir is the simulated service directory; the journal and result
// stores live under it exactly as they do under a real rmscaled -dir.
const svcDir = "/svc"

// resultLog is the result store's log, which the quarantine workload
// damages in place.
const resultLog = svcDir + "/results/results.log"

// maxListedFailures bounds how many failure strings the report
// carries; the counts always cover everything.
const maxListedFailures = 50

// Options parameterize a harness run.
type Options struct {
	// Sector is the torn-append granularity in bytes; <= 0 picks 64.
	Sector int
	// MaxTorn bounds how many torn-tail prefixes are materialized per
	// crash point; <= 0 picks 3.
	MaxTorn int
	// Workloads filters which canonical workloads run (by name);
	// empty runs all.
	Workloads []string
	// Log, when non-nil, receives one progress line per workload.
	Log io.Writer
	// SimulateDirSyncLoss runs the workloads on a filesystem that
	// silently drops directory fsyncs — the exact failure mode of an
	// atomic write without the parent-dir fsync. The harness is
	// expected to FAIL under it; the self-test uses this knob to
	// prove the harness detects that class of durability bug.
	SimulateDirSyncLoss bool
}

// Report is the machine-readable harness result.
type Report struct {
	Sector       int              `json:"sector"`
	Workloads    []WorkloadReport `json:"workloads"`
	CrashPoints  int              `json:"crash_points"`
	States       int              `json:"states"`
	Checks       int              `json:"checks"`
	FailureCount int              `json:"failure_count"`
	Failures     []string         `json:"failures,omitempty"`
	OK           bool             `json:"ok"`
}

// WorkloadReport is one workload's slice of the run.
type WorkloadReport struct {
	Name        string `json:"name"`
	Ops         int    `json:"ops"`
	CrashPoints int    `json:"crash_points"`
	States      int    `json:"states"`
	Checks      int    `json:"checks"`
	Failures    int    `json:"failures"`
}

// fixedClock freezes time: harness runs must be reproducible, so no
// wall clock may leak into workloads or recovery.
type fixedClock struct{}

func (fixedClock) Now() time.Time      { return time.Time{} }
func (fixedClock) Sleep(time.Duration) {}

// After satisfies service.Clock; the nil channel never fires, which is
// exactly right — nothing in a crash replay may wait on real time.
func (fixedClock) After(time.Duration) <-chan time.Time { return nil } //lint:allow nokernelgoroutines Clock interface requires the channel-typed signature; the harness never creates or sends on one

// harnessError marks a defect in the harness or its plumbing (not a
// finding about the code under test); it propagates as a panic so a
// broken harness can never report a green run.
type harnessError struct{ err error }

func must(err error) {
	if err != nil {
		panic(harnessError{err})
	}
}

// workload is one canonical persistence scenario.
type workload struct {
	name          string
	maxResults    int // result store MaxResults for run and recovery (0 = unbounded)
	maxQuarantine int // MaxQuarantine of both stores for run and recovery (0 = default)
	run           func(o *oracle)
}

// oracle accumulates, while a workload runs, which guarantee became
// binding at which op index, per store. An acknowledgement at op count
// c is binding for every crash prefix of at least c ops; a weakening
// at op count c (GC eviction may begin, deliberate corruption starts)
// legitimizes absence for prefixes of c ops or more.
type oracle struct {
	fs *crashfs.FS
	wl *workload

	results, journal *ledger
}

// ledger is what a workload wrote to one store.
type ledger struct {
	name      string
	dir       string
	ref       map[string][]byte // id -> payload bytes handed to Put
	ack       map[string]int    // id -> op count when the durable Put or batch returned
	maybeGone map[string]int    // id -> op count after which absence is legitimate
}

func newLedger(name string) *ledger {
	return &ledger{
		name: name, dir: svcDir + "/" + name,
		ref: map[string][]byte{}, ack: map[string]int{}, maybeGone: map[string]int{},
	}
}

func newOracle(fs *crashfs.FS, wl *workload) *oracle {
	return &oracle{fs: fs, wl: wl, results: newLedger("results"), journal: newLedger("journal")}
}

// ledgers lists the stores in the order a daemon opens them.
func (o *oracle) ledgers() []*ledger { return []*ledger{o.results, o.journal} }

// open opens l's store on the oracle's filesystem.
func (o *oracle) open(l *ledger) *service.Store { return o.openOn(o.fs, l) }

// openOn opens l's store on disk as the daemon does: the result store
// under the workload's GC bound, the journal with none.
func (o *oracle) openOn(disk *crashfs.FS, l *ledger) *service.Store {
	cfg := service.StoreConfig{Dir: l.dir, MaxQuarantine: o.wl.maxQuarantine, Clock: fixedClock{}, FS: disk}
	if l == o.results {
		cfg.MaxResults = o.wl.maxResults
	}
	st, err := service.NewStore(cfg)
	must(err)
	return st
}

// pad generates size deterministic filler bytes seeded by the id.
func pad(id string, size int) string {
	b := make([]byte, size)
	for i := range b {
		b[i] = "abcdefghijklmnopqrstuvwxyz0123456789"[(i+len(id)*7)%36]
	}
	return string(b)
}

// payloadBytes is the deterministic payload for an id — the stand-in
// for a submission record or a re-executable, content-addressed
// result.
func payloadBytes(id string, size int) []byte {
	return []byte(fmt.Sprintf(`{"id":%q,"pad":%q}`+"\n", id, pad(id, size)))
}

// put stores id in l's store and registers the acknowledged reference
// bytes.
func (o *oracle) put(l *ledger, st *service.Store, id string, size int) {
	o.putBatch(l, st, []string{id}, []int{size})
}

// putBatch commits the ids' payloads, of the given sizes, as one batch
// and acknowledges them all once it returns. The store must not be
// degraded afterwards — on crashfs a commit either completes or
// crashes, so degradation means a harness defect.
func (o *oracle) putBatch(l *ledger, st *service.Store, ids []string, sizes []int) {
	items := make([]service.StoreItem, len(ids))
	for k, id := range ids {
		b := payloadBytes(id, sizes[k])
		l.ref[id] = b
		items[k] = service.StoreItem{ID: id, Data: b}
	}
	st.PutBatch(items)
	if why, degraded := st.Degraded(); degraded {
		must(fmt.Errorf("%s store degraded during workload: %s", l.name, why))
	}
	for _, id := range ids {
		l.ack[id] = o.fs.OpCount()
	}
}

// weaken marks result ids as legitimately absent from any crash prefix
// that includes the current op count — called before an
// eviction-risking or corrupting operation begins.
func (o *oracle) weaken(ids ...string) {
	at := o.fs.OpCount()
	for _, id := range ids {
		if _, ok := o.results.maybeGone[id]; !ok {
			o.results.maybeGone[id] = at
		}
	}
}

// rot damages id's record inside the result log in place, as a
// decaying disk would: four payload characters change, the line's
// framing and the other records do not, so only id is weakened. sync
// controls whether the damage itself is flushed.
func (o *oracle) rot(id string, sync bool) {
	o.weaken(id)
	raw, err := o.fs.ReadFile(resultLog)
	must(err)
	rec := bytes.Index(raw, []byte(`{"id":"`+id+`"`))
	data := bytes.Index(raw[max(rec, 0):], []byte(`"data":"`))
	if rec < 0 || data < 0 {
		must(fmt.Errorf("rot: no logged payload for %s", id))
	}
	must(o.fs.Overwrite(resultLog, rec+data+len(`"data":"`), []byte("AAAA")))
	if sync {
		f, err := o.fs.OpenFile(resultLog, os.O_WRONLY, 0o644)
		must(err)
		must(f.Sync())
		must(f.Close())
	}
}

// workloads returns the canonical scenarios in reporting order.
func workloads() []*workload {
	return []*workload{
		{
			// The daemon hot path: accept (journal), execute, store.
			name: "submit-execute-store",
			run: func(o *oracle) {
				j := o.open(o.journal)
				st := o.open(o.results)
				for k := 0; k < 3; k++ {
					id := fmt.Sprintf("exp%02d", k)
					o.put(o.journal, j, id, 20+70*k)
					o.put(o.results, st, id, 40+90*k)
				}
				must(j.Close())
			},
		},
		{
			// Group commit of results, as the daemon's committer does
			// it: the results the shards finish commit as one batch
			// whose GC evictions append tombstones — including one for
			// an earlier item of the same batch.
			name:       "group-commit",
			maxResults: 3,
			run: func(o *oracle) {
				j := o.open(o.journal)
				st := o.open(o.results)
				o.put(o.journal, j, "grp00", 30)
				o.put(o.results, st, "grp00", 50)
				ids := []string{"grp01", "grp02", "grp03", "grp04"}
				for k, id := range ids {
					o.put(o.journal, j, id, 20+40*k)
				}
				// Four results over a bound of three evict grp00, then
				// grp01 from the batch itself.
				o.weaken("grp00", "grp01")
				o.putBatch(o.results, st, ids, []int{40, 100, 160, 220})
				must(j.Close())
			},
		},
		{
			// Journal append bursts across two sessions: tail
			// recovery, resume, and append-after-resume.
			name: "journal-burst",
			run: func(o *oracle) {
				j := o.open(o.journal)
				for k := 0; k < 5; k++ {
					o.put(o.journal, j, fmt.Sprintf("burst%02d", k), 10+60*k)
				}
				must(j.Close())
				j2 := o.open(o.journal)
				for k := 5; k < 8; k++ {
					o.put(o.journal, j2, fmt.Sprintf("burst%02d", k), 15+40*k)
				}
				must(j2.Close())
			},
		},
		{
			// LRU GC under a tight bound: eviction appends tombstones
			// and compaction rewrites the log, which weakens the
			// survival guarantee for the evicted.
			name:       "gc-eviction",
			maxResults: 2,
			run: func(o *oracle) {
				st := o.open(o.results)
				var stored []string
				for k := 0; k < 5; k++ {
					id := fmt.Sprintf("gc%02d", k)
					// Any already-stored entry may be evicted by this
					// Put once the bound is exceeded.
					if k >= 2 {
						o.weaken(stored...)
					}
					o.put(o.results, st, id, 30+50*k)
					stored = append(stored, id)
				}
				// A read reshuffles LRU order, so the next eviction
				// takes gc04, not gc03.
				st.Get("gc03")
				o.weaken(stored...)
				o.put(o.results, st, "gc05", 60)
			},
		},
		{
			// Disk corruption: the replay quarantines rotted records,
			// and the quarantine bound evicts the oldest beyond the cap.
			name:          "quarantine",
			maxQuarantine: 2,
			run: func(o *oracle) {
				st := o.open(o.results)
				ids := []string{"qaa", "qbb", "qcc", "qdd"}
				for k, id := range ids {
					o.put(o.results, st, id, 35+45*k)
				}
				o.rot("qaa", true)
				o.rot("qbb", true)
				o.rot("qcc", false) // damage still in the page cache
				// A fresh store replays the log: each rotted record fails
				// its checksum and is quarantined, the third exceeds the
				// cap and evicts the oldest, and the log is rewritten.
				o.open(o.results)
			},
		},
		{
			// Drain and restart: close, reopen, replay, keep working —
			// the daemon lifecycle across incarnations.
			name: "drain-restart",
			run: func(o *oracle) {
				j := o.open(o.journal)
				st := o.open(o.results)
				o.put(o.journal, j, "runa", 25)
				o.put(o.results, st, "runa", 130)
				o.put(o.journal, j, "runb", 160)
				o.put(o.results, st, "runb", 45)
				must(j.Close())
				j2 := o.open(o.journal)
				st2 := o.open(o.results)
				o.put(o.journal, j2, "runc", 80)
				o.put(o.results, st2, "runc", 220)
				must(j2.Close())
			},
		},
	}
}

// Run executes the harness and returns its report. The error is
// non-nil only for harness-internal defects; invariant violations are
// findings inside the report (OK = false).
func Run(opts Options) (rep Report, err error) {
	if opts.Sector <= 0 {
		opts.Sector = 64
	}
	if opts.MaxTorn <= 0 {
		opts.MaxTorn = 3
	}
	defer func() {
		if r := recover(); r != nil {
			he, ok := r.(harnessError)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("crash: harness defect: %w", he.err)
		}
	}()
	rep.Sector = opts.Sector
	for _, wl := range workloads() {
		if !selected(opts.Workloads, wl.name) {
			continue
		}
		wrep := runWorkload(opts, wl, &rep)
		rep.Workloads = append(rep.Workloads, wrep)
		rep.CrashPoints += wrep.CrashPoints
		rep.States += wrep.States
		rep.Checks += wrep.Checks
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, "crashtest: %-22s ops=%-3d crash_points=%-3d states=%-4d checks=%-5d failures=%d\n",
				wl.name, wrep.Ops, wrep.CrashPoints, wrep.States, wrep.Checks, wrep.Failures)
		}
	}
	if len(rep.Workloads) == 0 {
		return rep, fmt.Errorf("crash: no workload matches %v", opts.Workloads)
	}
	rep.OK = rep.FailureCount == 0
	return rep, nil
}

func selected(filter []string, name string) bool {
	if len(filter) == 0 {
		return true
	}
	for _, f := range filter {
		if f == name {
			return true
		}
	}
	return false
}

// runWorkload enumerates every crash point of one workload: a
// fault-free reference run fixes the op count N, then the workload
// replays N+1 times with the crash armed at op 1..N (prefixes of
// 0..N-1 ops) and once unarmed (the complete trace), and every
// materialized variant of every crash state is recovered and checked.
func runWorkload(opts Options, wl *workload, rep *Report) WorkloadReport {
	fsOpts := crashfs.Options{Sector: opts.Sector, DropDirSyncs: opts.SimulateDirSyncLoss}
	ref := newOracle(crashfs.New(fsOpts), wl)
	if crashed := crashfs.Catch(func() { wl.run(ref) }); crashed {
		must(fmt.Errorf("workload %s: reference run crashed", wl.name))
	}
	n := ref.fs.OpCount()
	wrep := WorkloadReport{Name: wl.name, Ops: n}
	for at := 1; at <= n+1; at++ {
		armed := fsOpts
		armed.CrashAt = at
		o := newOracle(crashfs.New(armed), wl)
		crashed := crashfs.Catch(func() { wl.run(o) })
		if crashed != (at <= n) {
			fail(rep, &wrep, fmt.Sprintf("%s@op%d: crash armed at op %d of %d did not behave prefix-exactly (crashed=%v)",
				wl.name, at, at, n, crashed))
			continue
		}
		wrep.CrashPoints++
		for _, v := range o.fs.Variants(opts.MaxTorn) {
			wrep.States++
			checkState(o, v, at-1, rep, &wrep)
		}
	}
	return wrep
}

// fail accounts one invariant violation.
func fail(rep *Report, wrep *WorkloadReport, msg string) {
	rep.FailureCount++
	wrep.Failures++
	if len(rep.Failures) < maxListedFailures {
		rep.Failures = append(rep.Failures, msg)
	}
}

// checkState recovers one materialized crash image and asserts every
// invariant. prefix is the number of trace ops applied before the
// crash: an acknowledgement at op count <= prefix is binding.
func checkState(o *oracle, v crashfs.Variant, prefix int, rep *Report, wrep *WorkloadReport) {
	ctx := fmt.Sprintf("%s@op%d/%s", o.wl.name, prefix, v.Name)
	ck := func(ok bool, format string, args ...any) bool {
		wrep.Checks++
		if !ok {
			fail(rep, wrep, ctx+": "+fmt.Sprintf(format, args...))
		}
		return ok
	}

	// Each store: recover; never serve wrong bytes; never lose an
	// acknowledged, unweakened entry; keep the quarantine bounded.
	disk := o.fs.Materialize(v)
	maxQ := o.wl.maxQuarantine
	if maxQ <= 0 {
		maxQ = service.DefaultMaxQuarantine
	}
	for _, l := range o.ledgers() {
		st := o.openOn(disk, l)
		why, degraded := st.Degraded()
		ck(!degraded, "%s store recovery degraded: %s", l.name, why)
		served := map[string]bool{}
		must(st.Each(func(id string, b []byte) error {
			served[id] = true
			if ref, known := l.ref[id]; ck(known, "%s store serves %q, which was never written", l.name, id) {
				ck(bytes.Equal(b, ref), "%s store serves %q with wrong bytes: %q != %q", l.name, id, b, ref)
			}
			return nil
		}))
		var missing []string
		for _, id := range sortedKeys(l.ref) {
			if served[id] {
				continue
			}
			wrep.Checks++
			missing = append(missing, id)
			at, acked := l.ack[id]
			weakAt, weak := l.maybeGone[id]
			if acked && at <= prefix && !(weak && prefix >= weakAt) {
				fail(rep, wrep, fmt.Sprintf("%s: acknowledged %s entry %q lost (acked at op %d, crash after op %d)",
					ctx, l.name, id, at, prefix))
			}
		}
		ck(st.Stats().QuarantineLen <= maxQ, "%s quarantine overflows its bound: %d > %d", l.name, st.Stats().QuarantineLen, maxQ)

		// Re-execution: a lost result regenerates (content addressing),
		// a lost submission is resubmitted, and either must round-trip
		// byte-identical to the fault-free reference.
		for _, id := range missing {
			st.Put(id, l.ref[id])
			b, ok := st.Get(id)
			ck(ok && bytes.Equal(b, l.ref[id]), "re-stored %s entry %q does not round-trip byte-identical", l.name, id)
		}
		must(st.Close())
	}

	// Idempotence: recovering twice from the same image must leave the
	// disk byte-identical to recovering once, and the second open of
	// each store must find nothing to repair.
	d2 := o.fs.Materialize(v)
	o.recoverOn(d2)
	s1 := d2.Snapshot()
	audits := o.recoverOn(d2)
	s2 := d2.Snapshot()
	ck(snapshotsEqual(s1, s2), "recovery is not idempotent: second recovery changed the disk")
	for i, a := range audits {
		ck(!a.Rewritten && a.Quarantined == 0 && a.Torn == 0 && a.TempsCleaned == 0,
			"recovery is not idempotent: second %s store open repaired again: %+v", o.ledgers()[i].name, a)
	}
}

// recoverOn opens and closes every store on disk, as a restarting
// daemon would, and returns their open-time audits.
func (o *oracle) recoverOn(disk *crashfs.FS) []service.StoreAudit {
	var audits []service.StoreAudit
	for _, l := range o.ledgers() {
		st := o.openOn(disk, l)
		must(st.Close())
		audits = append(audits, st.Audit())
	}
	return audits
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m { //lint:orderindependent keys are sorted before use
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// snapshotsEqual compares two disk images byte for byte.
func snapshotsEqual(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for path, content := range a { //lint:orderindependent pure equality; order cannot change the result
		other, ok := b[path]
		if !ok || !bytes.Equal(content, other) {
			return false
		}
	}
	return true
}
