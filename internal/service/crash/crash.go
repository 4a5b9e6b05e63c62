// Package crash is the crash-consistency harness: it runs canonical
// journal/store workloads against the simulated filesystem
// (internal/fsutil/crashfs), enumerates every crash point in the
// recorded op trace plus torn- and garbled-tail variants of the
// final op, restarts the persistence layer on each materialized disk
// image, and asserts the recovery invariants DESIGN.md §7 promises:
//
//   - recovery always succeeds: no crash image makes OpenJournalFS or
//     NewStore refuse to start;
//   - the journal recovers to a valid prefix, and Dropped() agrees
//     with an independent line-scan oracle over the raw bytes;
//   - every record the recovered journal serves is byte-identical to
//     what was journaled, and every acknowledged record survives;
//   - every store entry is checksum-verified or absent/quarantined —
//     corrupt, misattributed or wrong bytes are never served;
//   - acknowledged, durably-stored results are never lost (the
//     invariant that catches a missing parent-dir fsync), except
//     where the workload itself weakened the guarantee (GC eviction,
//     deliberate corruption);
//   - recovery is idempotent: recovering twice from any image leaves
//     the disk byte-identical to recovering once, and the second
//     store open repairs nothing;
//   - re-executed (re-stored) results round-trip byte-identical to
//     the fault-free reference.
//
// Everything is deterministic — fixed clock, generated payloads, no
// randomness — so a failure report names an exact (workload, crash
// op, variant) triple that replays identically every run.
package crash

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"rmscale/internal/fsutil/crashfs"
	"rmscale/internal/runner"
	"rmscale/internal/service"
)

// svcDir is the simulated service directory; journal and results live
// under it exactly as they do under a real rmscaled -dir.
const svcDir = "/svc"

// resultsDir and resultLog locate the store's disk tier under svcDir.
const (
	resultsDir = svcDir + "/results"
	resultLog  = resultsDir + "/results.log"
)

// fingerprint guards the harness's journal format.
const fingerprint = "crashtest/v1"

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
	maxResults    int // store MaxResults for run and recovery (0 = unbounded)
	maxQuarantine int // store MaxQuarantine for run and recovery (0 = default)
	run           func(o *oracle)
}

// oracle accumulates, while a workload runs, which guarantee became
// binding at which op index. An acknowledgement at op count c is
// binding for every crash prefix of at least c ops; a weakening at
// op count c (GC eviction may begin, deliberate corruption starts)
// legitimizes absence for prefixes of c ops or more.
type oracle struct {
	fs *crashfs.FS
	wl *workload

	journalRef map[string][]byte // id -> exact journaled payload bytes
	journalAck map[string]int    // id -> op count when Record returned
	storeRef   map[string][]byte // id -> payload bytes handed to Put
	storeAck   map[string]int    // id -> op count when the durable Put or batch returned
	maybeGone  map[string]int    // id -> op count after which absence is legitimate
}

func newOracle(fs *crashfs.FS, wl *workload) *oracle {
	return &oracle{
		fs: fs, wl: wl,
		journalRef: map[string][]byte{},
		journalAck: map[string]int{},
		storeRef:   map[string][]byte{},
		storeAck:   map[string]int{},
		maybeGone:  map[string]int{},
	}
}

// openJournal opens the workload journal on the oracle's filesystem.
func (o *oracle) openJournal() *runner.Journal {
	j, _, err := runner.OpenJournalFS(svcDir, fingerprint, o.fs)
	must(err)
	return j
}

// openStore opens the workload store on the oracle's filesystem.
func (o *oracle) openStore() *service.Store {
	st, err := service.NewStore(service.StoreConfig{
		Dir:           svcDir,
		MaxResults:    o.wl.maxResults,
		MaxQuarantine: o.wl.maxQuarantine,
		Clock:         fixedClock{},
		FS:            o.fs,
	})
	must(err)
	return st
}

// journalPayload is the deterministic record body for an id.
type journalPayload struct {
	ID  string `json:"id"`
	Pad string `json:"pad"`
}

// pad generates size deterministic filler bytes seeded by the id.
func pad(id string, size int) string {
	b := make([]byte, size)
	for i := range b {
		b[i] = "abcdefghijklmnopqrstuvwxyz0123456789"[(i+len(id)*7)%36]
	}
	return string(b)
}

// payloadBytes is the deterministic store payload for an id — the
// stand-in for a re-executable, content-addressed result.
func payloadBytes(id string, size int) []byte {
	return []byte(fmt.Sprintf(`{"id":%q,"pad":%q}`+"\n", id, pad(id, size)))
}

// record journals id and registers the acknowledged reference bytes.
func (o *oracle) record(j *runner.Journal, id string, size int) {
	v := journalPayload{ID: id, Pad: pad(id, size)}
	raw, err := json.Marshal(v)
	must(err)
	o.journalRef[id] = raw
	must(j.Record(id, v))
	o.journalAck[id] = o.fs.OpCount()
}

// put stores id and registers the acknowledged reference bytes.
func (o *oracle) put(st *service.Store, id string, size int) {
	o.putBatch(st, []string{id}, []int{size})
}

// putBatch commits the ids' results, of the given payload sizes, as
// one batch and acknowledges them all once it returns. The store must
// not be degraded afterwards — on crashfs a commit either completes or
// crashes, so degradation means a harness defect.
func (o *oracle) putBatch(st *service.Store, ids []string, sizes []int) {
	items := make([]service.StoreItem, len(ids))
	for k, id := range ids {
		b := payloadBytes(id, sizes[k])
		o.storeRef[id] = b
		items[k] = service.StoreItem{ID: id, Data: b}
	}
	st.PutBatch(items)
	if why, degraded := st.Degraded(); degraded {
		must(fmt.Errorf("store degraded during workload: %s", why))
	}
	for _, id := range ids {
		o.storeAck[id] = o.fs.OpCount()
	}
}

// weaken marks ids as legitimately absent from any crash prefix that
// includes the current op count — called before an eviction-risking
// or corrupting operation begins.
func (o *oracle) weaken(ids ...string) {
	at := o.fs.OpCount()
	for _, id := range ids {
		if _, ok := o.maybeGone[id]; !ok {
			o.maybeGone[id] = at
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

// legacyPair writes id's payload the way the earlier store generation
// did — an atomic payload file, then (when sidecar) an atomic SHA-256
// sidecar — and acknowledges it once that store's Put would have
// returned.
func (o *oracle) legacyPair(id string, size int, sidecar bool) {
	b := payloadBytes(id, size)
	o.storeRef[id] = b
	must(o.fs.WriteFileAtomic(resultsDir+"/"+id+".json", b, 0o644))
	if sidecar {
		must(o.fs.WriteFileAtomic(resultsDir+"/"+id+".json.sha256", []byte(sha256Hex(b)+"\n"), 0o644))
	}
	o.storeAck[id] = o.fs.OpCount()
}

// legacyRot damages a stored legacy payload in place and flushes the
// damage, so its sidecar no longer matches. The reference keeps the
// true bytes, so serving the damaged ones is a finding.
func (o *oracle) legacyRot(id string) {
	o.weaken(id)
	path := resultsDir + "/" + id + ".json"
	must(o.fs.Overwrite(path, 2, []byte("XXXX")))
	f, err := o.fs.OpenFile(path, os.O_WRONLY, 0o644)
	must(err)
	must(f.Sync())
	must(f.Close())
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// workloads returns the canonical scenarios in reporting order.
func workloads() []*workload {
	return []*workload{
		{
			// The daemon hot path: accept (journal), execute, store.
			name: "submit-execute-store",
			run: func(o *oracle) {
				j := o.openJournal()
				st := o.openStore()
				for k := 0; k < 3; k++ {
					id := fmt.Sprintf("exp%02d", k)
					o.record(j, id, 20+70*k)
					o.put(st, id, 40+90*k)
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
				j := o.openJournal()
				st := o.openStore()
				o.record(j, "grp00", 30)
				o.put(st, "grp00", 50)
				ids := []string{"grp01", "grp02", "grp03", "grp04"}
				for k, id := range ids {
					o.record(j, id, 20+40*k)
				}
				// Four results over a bound of three evict grp00, then
				// grp01 from the batch itself.
				o.weaken("grp00", "grp01")
				o.putBatch(st, ids, []int{40, 100, 160, 220})
				must(j.Close())
			},
		},
		{
			// Append bursts across two journal sessions: tail
			// recovery, resume, and append-after-resume.
			name: "journal-burst",
			run: func(o *oracle) {
				j := o.openJournal()
				for k := 0; k < 5; k++ {
					o.record(j, fmt.Sprintf("burst%02d", k), 10+60*k)
				}
				must(j.Close())
				j2 := o.openJournal()
				for k := 5; k < 8; k++ {
					o.record(j2, fmt.Sprintf("burst%02d", k), 15+40*k)
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
				st := o.openStore()
				var stored []string
				for k := 0; k < 5; k++ {
					id := fmt.Sprintf("gc%02d", k)
					// Any already-stored entry may be evicted by this
					// Put once the bound is exceeded.
					if k >= 2 {
						o.weaken(stored...)
					}
					o.put(st, id, 30+50*k)
					stored = append(stored, id)
				}
				// A read reshuffles LRU order, so the next eviction
				// takes gc04, not gc03.
				st.Get("gc03")
				o.weaken(stored...)
				o.put(st, "gc05", 60)
			},
		},
		{
			// Disk corruption: the replay quarantines rotted records,
			// and the quarantine bound evicts the oldest beyond the cap.
			name:          "quarantine",
			maxQuarantine: 2,
			run: func(o *oracle) {
				st := o.openStore()
				ids := []string{"qaa", "qbb", "qcc", "qdd"}
				for k, id := range ids {
					o.put(st, id, 35+45*k)
				}
				o.rot("qaa", true)
				o.rot("qbb", true)
				o.rot("qcc", false) // damage still in the page cache
				// A fresh store replays the log: each rotted record fails
				// its checksum and is quarantined, the third exceeds the
				// cap and evicts the oldest, and the log is rewritten.
				o.openStore()
			},
		},
		{
			// Drain and restart: close, reopen, replay, keep working —
			// the daemon lifecycle across incarnations.
			name: "drain-restart",
			run: func(o *oracle) {
				j := o.openJournal()
				st := o.openStore()
				o.record(j, "runa", 25)
				o.put(st, "runa", 130)
				o.record(j, "runb", 160)
				o.put(st, "runb", 45)
				must(j.Close())
				j2 := o.openJournal()
				st2 := o.openStore()
				o.record(j2, "runc", 80)
				o.put(st2, "runc", 220)
				must(j2.Close())
			},
		},
		{
			// A directory an earlier store generation wrote: payload +
			// sidecar pairs, a payload whose sidecar never landed, a
			// corrupt pair and an orphaned temp file. Opening folds the
			// valid payloads into the log, quarantines the corrupt pair
			// and removes every legacy file; the store keeps working.
			name: "legacy-import",
			run: func(o *oracle) {
				must(o.fs.MkdirAll(resultsDir, 0o755))
				o.legacyPair("lgaa", 60, true)
				o.legacyPair("lgbb", 140, true)
				o.legacyPair("lgcc", 90, false)
				o.legacyPair("lgdd", 70, true)
				o.legacyRot("lgdd")
				f, err := o.fs.OpenFile(resultsDir+"/.lgee.json.tmp", os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o600)
				must(err)
				_, err = f.Write([]byte(`{"partial":`))
				must(err)
				must(f.Close())
				st := o.openStore()
				o.put(st, "lgff", 110)
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
	binding := func(ackAt map[string]int, id string) bool {
		at, acked := ackAt[id]
		if !acked || at > prefix {
			return false
		}
		if weakAt, weak := o.maybeGone[id]; weak && prefix >= weakAt {
			return false
		}
		return true
	}

	disk := o.fs.Materialize(v)

	// Journal: recovery must accept any crash image, and Dropped()
	// must agree with an independent scan of the raw bytes.
	raw, _ := disk.ReadFile(svcDir + "/journal.jsonl")
	wantKept, wantDropped := journalOracle(raw)
	j, _, err := runner.OpenJournalFS(svcDir, fingerprint, disk)
	if !ck(err == nil, "journal recovery refused a crash image: %v", err) {
		return
	}
	ck(j.Dropped() == wantDropped, "journal Dropped() = %d, oracle says %d damaged lines", j.Dropped(), wantDropped)
	ck(j.Len() == wantKept, "journal recovered %d records, oracle says the valid prefix holds %d", j.Len(), wantKept)
	recovered := map[string]json.RawMessage{}
	must(j.Each(func(id string, data json.RawMessage) error {
		recovered[id] = data
		return nil
	}))
	for id, data := range recovered { //lint:orderindependent failures are keyed by ctx+id; map order cannot change what is reported, only the order counters increment
		ref, known := o.journalRef[id]
		if !ck(known, "journal serves record %q that was never written", id) {
			continue
		}
		ck(bytes.Equal(data, ref), "journal record %q mutated: %q != %q", id, data, ref)
	}
	for _, id := range sortedKeys(o.journalAck) {
		if !binding(o.journalAck, id) {
			continue
		}
		_, ok := recovered[id]
		ck(ok, "acknowledged journal record %q lost (acked at op %d, crash after op %d)", id, o.journalAck[id], prefix)
	}
	must(j.Close())

	// Store: never serve wrong bytes; never lose an acknowledged,
	// unweakened result; keep the quarantine bounded.
	st := o.openStoreOn(disk)
	missing := []string{}
	for _, id := range sortedKeys(o.storeRef) {
		ref := o.storeRef[id]
		b, ok := st.Get(id)
		if ok {
			ck(bytes.Equal(b, ref), "store serves %q with wrong bytes: %q != %q", id, b, ref)
			continue
		}
		wrep.Checks++
		missing = append(missing, id)
		if binding(o.storeAck, id) {
			fail(rep, wrep, fmt.Sprintf("%s: acknowledged result %q lost (acked at op %d, crash after op %d)",
				ctx, id, o.storeAck[id], prefix))
		}
	}
	maxQ := o.wl.maxQuarantine
	if maxQ <= 0 {
		maxQ = service.DefaultMaxQuarantine
	}
	ck(st.Stats().QuarantineLen <= maxQ, "quarantine overflows its bound: %d > %d", st.Stats().QuarantineLen, maxQ)

	// Re-execution: a lost result regenerates (content addressing) and
	// must round-trip byte-identical to the fault-free reference.
	for _, id := range missing {
		st.Put(id, o.storeRef[id])
		b, ok := st.Get(id)
		ck(ok && bytes.Equal(b, o.storeRef[id]), "re-executed result %q does not round-trip byte-identical", id)
	}

	// Idempotence: recovering twice from the same image must leave the
	// disk byte-identical to recovering once, and the second store open
	// must find nothing to repair.
	d2 := o.fs.Materialize(v)
	o.recoverOn(d2)
	s1 := d2.Snapshot()
	a := o.recoverOn(d2)
	s2 := d2.Snapshot()
	ck(snapshotsEqual(s1, s2), "recovery is not idempotent: second recovery changed the disk")
	ck(!a.Rewritten && a.Imported == 0 && a.Quarantined == 0 && a.TempsCleaned == 0,
		"recovery is not idempotent: second store open repaired again: %+v", a)
}

// openStoreOn opens the workload-shaped store on an arbitrary disk.
func (o *oracle) openStoreOn(disk *crashfs.FS) *service.Store {
	st, err := service.NewStore(service.StoreConfig{
		Dir:           svcDir,
		MaxResults:    o.wl.maxResults,
		MaxQuarantine: o.wl.maxQuarantine,
		Clock:         fixedClock{},
		FS:            disk,
	})
	must(err)
	return st
}

// recoverOn runs one full recovery (journal open/close + store open)
// on disk, as a restarting daemon would, and returns the store's
// open-time audit.
func (o *oracle) recoverOn(disk *crashfs.FS) service.StoreAudit {
	j, _, err := runner.OpenJournalFS(svcDir, fingerprint, disk)
	must(err)
	must(j.Close())
	st := o.openStoreOn(disk)
	must(st.Close())
	return st.Audit()
}

// journalOracle independently derives, from the raw bytes of a
// (possibly damaged) journal file, how many records a correct
// recovery keeps and how many damaged lines it drops. It
// deliberately re-implements the commit rules with a simple line
// scan — a terminated valid header, then terminated records with
// non-empty IDs up to the first damage — so a bookkeeping bug in
// parseJournal cannot vouch for itself.
func journalOracle(b []byte) (kept, dropped int) {
	if len(b) == 0 {
		return 0, 0
	}
	segs := bytes.Split(b, []byte("\n"))
	// A trailing newline leaves one final empty segment; any other
	// final segment never got its newline and is uncommitted.
	terminated := func(i int) bool { return i < len(segs)-1 }
	ids := map[string]bool{}
	sawHeader := false
	for i, seg := range segs {
		if len(seg) == 0 {
			continue
		}
		if !sawHeader {
			var hdr struct {
				Header struct {
					Version int `json:"version"`
				} `json:"header"`
			}
			if !terminated(i) || json.Unmarshal(seg, &hdr) != nil || hdr.Header.Version == 0 {
				return 0, countDamaged(segs, i)
			}
			sawHeader = true
			continue
		}
		var rec struct {
			ID string `json:"id"`
		}
		if !terminated(i) || json.Unmarshal(seg, &rec) != nil || rec.ID == "" {
			return len(ids), countDamaged(segs, i)
		}
		ids[rec.ID] = true
	}
	return len(ids), 0
}

// countDamaged counts the non-empty segments from index from on.
func countDamaged(segs [][]byte, from int) int {
	n := 0
	for _, seg := range segs[from:] {
		if len(seg) > 0 {
			n++
		}
	}
	return n
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
