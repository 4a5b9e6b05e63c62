package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	//lint:allow nokernelgoroutines the result store is shared by HTTP handler goroutines and daemon shards; a mutex over the memory tier is the service layer's concurrency, not the sim kernel's
	"sync"

	"rmscale/internal/fsutil"
)

// Store is a durable map from ID to payload bytes. The memory tier
// answers every Get and Has. A disk-backed store also commits each
// entry to one append-only log in its own directory, DIR/<base>.log
// (base being DIR's last element), and rebuilds the memory tier from
// it when it opens. rmscaled keeps two: its result store, whose IDs are
// content addresses, so a payload is immutable once written — Put
// never changes the bytes under an existing ID — and clients may cache
// fetched results forever; and its submission journal, one record per
// accepted experiment. A store never removes an entry it holds. One
// daemon owns a directory.
//
// Integrity and lifecycle:
//
//   - each entry is one JSON line {"id","sum","data"} committed with
//     the rest of its batch in a single synced append (PutBatch); sum
//     is the SHA-256 over the ID and the payload, so neither damaged
//     bytes nor a damaged ID are ever served. The open-time replay
//     quarantines such a line under DIR/quarantine, and the daemon
//     re-executes the lost result when it resumes the journal, which
//     is safe precisely because the payload is a pure function of the
//     ID. Line framing confines the damage: replay resynchronises at
//     the next newline, and a torn final line (a crash mid-append) was
//     never acknowledged;
//   - whenever the log is not exactly its live records (a torn or
//     damaged line, superseded records, the tombstones an older,
//     GC-bounded rmscaled wrote) it is rewritten once at open with
//     fsutil.WriteAtomic, in ID order, so a second recovery changes
//     nothing;
//   - disk IO errors degrade the store to memory-only instead of
//     failing requests: entries stay servable for this incarnation,
//     durability is surfaced as a health condition, not an outage, and
//     nothing more is appended behind a possibly torn line.
type Store struct {
	// Configuration, immutable after NewStore: declared above the
	// mutex so the guarded-field discipline (locksafe) does not bind
	// lock-free readers to it.
	dir           string // "" = memory only
	fs            fsutil.FS
	maxQuarantine int
	log           *storeLog  // nil = memory only
	audit         StoreAudit // the open-time replay

	mu       sync.Mutex
	mem      map[string][]byte
	bytes    int64  // memory-tier payload bytes
	qseq     int64  // last quarantine sequence number issued
	qlen     int    // quarantined entries currently on disk
	qevicted int64  // quarantined entries evicted by the bound
	degraded string // non-empty: disk tier is offline (mem-only mode)
}

// storeLog is the disk tier: the append handle of the log. Its mutex
// serialises every log write, so records land in the order Put decided
// them under Store.mu; Get, Has and dedup answers never take it.
type storeLog struct {
	path string

	mu sync.Mutex
	f  fsutil.File // nil until the log exists and is open
}

// logRecord is one line of the log. A tombstone (Del) carries no
// payload: an older, GC-bounded rmscaled wrote one per eviction, and
// replay still honours it.
type logRecord struct {
	ID   string `json:"id"`
	Del  bool   `json:"del,omitempty"`
	Sum  string `json:"sum"`
	Data []byte `json:"data,omitempty"`
}

// recordSum is the checksum a log line carries: SHA-256 over a kind
// byte, the ID, a NUL and the payload. Covering the ID means a line
// whose ID was damaged cannot serve its bytes under another ID.
func recordSum(id string, del bool, data []byte) string {
	kind := byte('P')
	if del {
		kind = 'D'
	}
	h := sha256.New()
	h.Write([]byte{kind})
	h.Write([]byte(id))
	h.Write([]byte{0})
	h.Write(data)
	return hex.EncodeToString(h.Sum(nil))
}

// encodeRecord renders one log line, newline included.
func encodeRecord(id string, del bool, data []byte) []byte {
	// A struct of strings, a bool and bytes always marshals.
	b, _ := json.Marshal(logRecord{ID: id, Del: del, Sum: recordSum(id, del, data), Data: data})
	return append(b, '\n')
}

// decodeRecord parses and verifies one log line (without its newline).
func decodeRecord(line []byte) (logRecord, bool) {
	var r logRecord
	if json.Unmarshal(line, &r) != nil || r.ID == "" || r.Sum != recordSum(r.ID, r.Del, r.Data) {
		return logRecord{}, false
	}
	return r, true
}

// StoreConfig parameterizes a Store beyond its directory.
type StoreConfig struct {
	// Dir is the store's own directory, which holds its log and
	// quarantine; empty is memory-only.
	Dir string
	// MaxQuarantine bounds how many corrupt entries the quarantine
	// directory retains; beyond it the oldest are deleted. <= 0 picks
	// the default (64) — the quarantine exists for forensics on recent
	// corruption and must not grow without limit on a flaky disk.
	MaxQuarantine int
	// FS is the filesystem seam; nil uses the real filesystem.
	FS fsutil.FS
}

// DefaultMaxQuarantine bounds the quarantine directory when
// StoreConfig.MaxQuarantine does not.
const DefaultMaxQuarantine = 64

// StoreStats is the store's accounting snapshot.
type StoreStats struct {
	Len               int
	Bytes             int64
	QuarantineLen     int
	QuarantineEvicted int64
	Degraded          string
}

// NewStore returns a store persisting under cfg.Dir, or a purely
// in-memory store when cfg.Dir is empty. A disk-backed store replays
// its log before it returns; an IO error there degrades it to
// memory-only rather than failing.
func NewStore(cfg StoreConfig) (*Store, error) {
	fsys := cfg.FS
	if fsys == nil {
		fsys = fsutil.RealFS{}
	}
	maxQ := cfg.MaxQuarantine
	if maxQ <= 0 {
		maxQ = DefaultMaxQuarantine
	}
	s := &Store{
		mem:           make(map[string][]byte),
		fs:            fsys,
		maxQuarantine: maxQ,
	}
	if cfg.Dir == "" {
		return s, nil
	}
	s.dir = cfg.Dir
	if err := fsys.MkdirAll(s.dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: store dir: %w", err)
	}
	s.log = &storeLog{path: filepath.Join(s.dir, filepath.Base(s.dir)+".log")}
	s.open()
	return s, nil
}

// open rebuilds the memory tier from the log, sweeps orphaned temp
// files, and rewrites the log once when it is not exactly its live
// records.
func (s *Store) open() {
	//lint:allow locksafe open runs inside NewStore, before the store is shared; the uncontended lock only keeps the guarded-field discipline
	s.mu.Lock()
	defer s.mu.Unlock()
	s.boundQuarantineLocked() // recovers the quarantine bookkeeping
	raw, err := s.fs.ReadFile(s.log.path)
	exists := err == nil
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		// A log that cannot be read must not be appended to either.
		s.degraded = err.Error()
		return
	}
	dirty := s.replayLocked(raw)
	s.sweepTempsLocked()
	var werr error
	switch {
	case dirty:
		werr = s.log.rewriteLocked(s.fs, s.encodeLiveLocked())
		s.audit.Rewritten = werr == nil
	case exists:
		werr = s.log.reopenLocked(s.fs)
	}
	if werr != nil {
		s.degraded = werr.Error()
	}
	s.boundQuarantineLocked()
}

// replayLocked loads the log's verified records into the memory tier
// in log order and reports whether the log held anything but live
// records. Callers hold s.mu.
func (s *Store) replayLocked(raw []byte) (dirty bool) {
	for len(raw) > 0 {
		i := bytes.IndexByte(raw, '\n')
		if i < 0 {
			s.audit.Torn++ // its append never returned
			return true
		}
		line := raw[:i]
		raw = raw[i+1:]
		if len(line) == 0 {
			dirty = true
			continue
		}
		r, ok := decodeRecord(line)
		switch {
		case !ok:
			dirty = true
			s.quarantineLocked(append(line[:len(line):len(line)], '\n'))
		case r.Del:
			dirty = true
			s.bytes -= int64(len(s.mem[r.ID]))
			delete(s.mem, r.ID)
		default:
			s.audit.Verified++
			if old, dup := s.mem[r.ID]; dup {
				dirty = true
				s.bytes -= int64(len(old))
			}
			s.mem[r.ID] = r.Data
			s.bytes += int64(len(r.Data))
		}
	}
	return dirty
}

// sweepTempsLocked removes the temp files interrupted atomic writes
// left in the store's directory. Callers hold s.mu.
func (s *Store) sweepTempsLocked() {
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, n := range names {
		if strings.HasPrefix(n, ".") && strings.HasSuffix(n, ".tmp") && s.fs.Remove(filepath.Join(s.dir, n)) == nil {
			s.audit.TempsCleaned++
		}
	}
}

func (s *Store) quarantineDir() string { return filepath.Join(s.dir, "quarantine") }

// quarantineLocked counts one corrupt log line in the audit and keeps
// its bytes for forensics as quarantine/q%08d-<log name>. The monotonic
// sequence prefix makes the sorted listing arrival order, which is what
// lets the bound evict oldest-first. Callers hold s.mu.
func (s *Store) quarantineLocked(data []byte) {
	s.audit.Quarantined++
	qdir := s.quarantineDir()
	if s.fs.MkdirAll(qdir, 0o755) != nil {
		return
	}
	s.qseq++
	_ = s.fs.WriteFileAtomic(filepath.Join(qdir, fmt.Sprintf("q%08d-%s", s.qseq, filepath.Base(s.log.path))), data, 0o644)
}

// boundQuarantineLocked deletes the oldest quarantined entries beyond
// maxQuarantine, sweeps temp files an interrupted quarantine copy left,
// and refreshes the quarantine accounting from the directory itself:
// how many entries it holds and the highest sequence number issued, so
// restarts keep names monotonic. Callers hold s.mu.
func (s *Store) boundQuarantineLocked() {
	qdir := s.quarantineDir()
	names, err := s.fs.ReadDir(qdir)
	if err != nil {
		return
	}
	var entries []string
	for _, n := range names {
		switch {
		case strings.HasPrefix(n, ".") && strings.HasSuffix(n, ".tmp"):
			_ = s.fs.Remove(filepath.Join(qdir, n))
		case strings.HasPrefix(n, "q"):
			entries = append(entries, n)
		}
	}
	if len(entries) > 0 {
		var seq int64
		if _, err := fmt.Sscanf(entries[len(entries)-1], "q%d", &seq); err == nil && seq > s.qseq {
			s.qseq = seq
		}
	}
	removed := 0
	for ; removed < len(entries)-s.maxQuarantine; removed++ {
		_ = s.fs.Remove(filepath.Join(qdir, entries[removed]))
	}
	s.qlen = len(entries) - removed
	s.qevicted += int64(removed)
}

// Get returns the payload stored under id.
func (s *Store) Get(id string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.mem[id]
	return b, ok
}

// Has reports whether a valid result is stored under id. Corrupt log
// records never reach the memory tier, which is what makes restart
// resume re-execute damaged work instead of trusting its completion
// marker.
func (s *Store) Has(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.mem[id]
	return ok
}

// Each calls fn with every stored entry, in ID order, over a snapshot
// taken when it starts, and stops at the first error fn returns.
func (s *Store) Each(fn func(id string, b []byte) error) error {
	s.mu.Lock()
	ids := s.idsLocked()
	bs := make([][]byte, len(ids))
	for i, id := range ids {
		bs[i] = s.mem[id]
	}
	s.mu.Unlock()
	for i, id := range ids {
		if err := fn(id, bs[i]); err != nil {
			return err
		}
	}
	return nil
}

// idsLocked lists the memory tier's IDs in order. Callers hold s.mu.
func (s *Store) idsLocked() []string {
	ids := make([]string, 0, len(s.mem))
	for id := range s.mem { //lint:orderindependent ids are sorted below before use
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// StoreItem is one result of a batch commit: a payload and its ID.
type StoreItem struct {
	ID   string
	Data []byte
}

// Put stores one result: a PutBatch of one.
func (s *Store) Put(id string, b []byte) {
	s.PutBatch([]StoreItem{{ID: id, Data: b}})
}

// PutBatch stores the payloads under their IDs in memory and, when
// disk-backed and not degraded, commits the batch to the log with one
// synced append (the first commit creates the log): the lines the same
// Puts would write one by one, under one fsync. An ID already stored
// does no IO. When PutBatch returns, every new result in the batch is
// durable. A disk IO failure (disk full, permission loss, flaky
// device) does not fail the batch: the store drops to memory-only
// mode, remembers why, and the daemon surfaces the condition through
// /healthz and /v1/stats. The caller must not mutate the payloads
// after the call.
func (s *Store) PutBatch(items []StoreItem) {
	if s.log == nil {
		s.mu.Lock()
		for _, it := range items {
			s.insertLocked(it)
		}
		s.mu.Unlock()
		return
	}
	//lint:allow locksafe the log mutex serialises log writes so records land in the order PutBatch decides them under s.mu; Get, Has and dedup answers never take it, so no read waits on a flush
	s.log.mu.Lock()
	defer s.log.mu.Unlock()
	var recs []byte
	s.mu.Lock()
	for _, it := range items {
		if s.insertLocked(it) {
			recs = append(recs, encodeRecord(it.ID, false, it.Data)...)
		}
	}
	s.mu.Unlock()
	// Only a commit holding the log mutex degrades the store, so the
	// answer cannot change before this batch writes.
	if _, degraded := s.Degraded(); degraded || len(recs) == 0 {
		return
	}
	if err := s.log.appendLocked(s.fs, recs); err != nil {
		s.degrade(err)
	}
}

// degrade takes the disk tier offline, keeping the first reason.
func (s *Store) degrade(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.degraded == "" {
		s.degraded = err.Error()
	}
}

// insertLocked stores it unless its ID is already stored, and reports
// whether it did, so its record must be logged. Callers hold s.mu.
func (s *Store) insertLocked(it StoreItem) bool {
	if _, had := s.mem[it.ID]; had {
		return false
	}
	s.mem[it.ID] = it.Data
	s.bytes += int64(len(it.Data))
	return true
}

// appendLocked commits recs with one synced append. Callers hold l.mu.
func (l *storeLog) appendLocked(fsys fsutil.FS, recs []byte) error {
	if l.f == nil {
		if err := l.createLocked(fsys); err != nil {
			return err
		}
	}
	return fsys.AppendSync(l.f, recs)
}

// createLocked creates the log on the first Put. The directory fsync
// makes its entry durable before the first record is acknowledged.
// Callers hold l.mu.
func (l *storeLog) createLocked(fsys fsutil.FS) error {
	f, err := fsys.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("service: store log: %w", err)
	}
	if err := fsys.SyncDir(filepath.Dir(l.path)); err != nil {
		f.Close()
		return fmt.Errorf("service: store log %s: syncing dir: %w", l.path, err)
	}
	l.f = f
	return nil
}

// rewriteLocked atomically replaces the log with recs, exactly its
// live records, and reopens it for appends. Callers hold l.mu.
func (l *storeLog) rewriteLocked(fsys fsutil.FS, recs []byte) error {
	if err := fsys.WriteFileAtomic(l.path, recs, 0o644); err != nil {
		return err
	}
	return l.reopenLocked(fsys)
}

// reopenLocked opens the existing log for appends. Callers hold l.mu.
func (l *storeLog) reopenLocked(fsys fsutil.FS) error {
	f, err := fsys.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("service: store log: %w", err)
	}
	l.f = f
	return nil
}

// encodeLiveLocked renders the memory tier as log records in ID order,
// the order Each visits. Callers hold s.mu.
func (s *Store) encodeLiveLocked() []byte {
	var out []byte
	for _, id := range s.idsLocked() {
		out = append(out, encodeRecord(id, false, s.mem[id])...)
	}
	return out
}

// Close releases the log's file handle.
func (s *Store) Close() error {
	if s.log == nil {
		return nil
	}
	s.log.mu.Lock()
	defer s.log.mu.Unlock()
	if s.log.f == nil {
		return nil
	}
	err := s.log.f.Close()
	s.log.f = nil
	return err
}

// Degraded reports whether the disk tier is offline and why.
func (s *Store) Degraded() (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded, s.degraded != ""
}

// Len reports how many payloads the memory tier holds.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mem)
}

// Stats snapshots the store's accounting.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Len:               len(s.mem),
		Bytes:             s.bytes,
		QuarantineLen:     s.qlen,
		QuarantineEvicted: s.qevicted,
		Degraded:          s.degraded,
	}
}

// StoreAudit summarizes the open-time replay of the disk tier.
type StoreAudit struct {
	Verified     int  `json:"verified"`      // log records whose checksum matched
	Quarantined  int  `json:"quarantined"`   // corrupt log lines quarantined
	Torn         int  `json:"torn"`          // unterminated final lines dropped (a crash mid-append)
	TempsCleaned int  `json:"temps_cleaned"` // orphaned atomic-write temp files removed
	Rewritten    bool `json:"rewritten"`     // the log was rewritten as exactly its live records
}

// Audit reports what the open-time replay found and repaired: verified
// records, quarantined corruption, a torn final line, swept temp files,
// and whether the log was rewritten. Recovery is idempotent:
// reopening the healed directory verifies the same records and repairs
// nothing. The daemon logs it at startup, so post-crash healing is
// visible before the first request arrives.
func (s *Store) Audit() StoreAudit { return s.audit }
