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
	"time"

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
// accepted experiment. One daemon owns a directory.
//
// Integrity and lifecycle:
//
//   - each entry is one JSON line {"id","sum","data"} committed with
//     the rest of its batch in a single synced append (PutBatch); sum
//     is the SHA-256 over the ID and the payload, so neither damaged
//     bytes nor a damaged ID are ever served. The open-time replay
//     quarantines such a line under DIR/quarantine, and the daemon
//     re-executes a lost result on demand, which is safe precisely
//     because the payload is a pure function of the ID. Line framing
//     confines the damage: replay resynchronises at the next newline,
//     and a torn final line (a crash mid-append) was never
//     acknowledged;
//   - whenever the log is not exactly its live records (a torn or
//     damaged line, superseded records, tombstones) it is rewritten
//     once at open with fsutil.WriteAtomic, so a second recovery
//     changes nothing; the same rewrite runs when dead bytes outweigh
//     live ones, so the GC bounds bound the disk;
//   - disk IO errors degrade the store to memory-only instead of
//     failing requests: entries stay servable for this incarnation,
//     durability is surfaced as a health condition, not an outage, and
//     nothing more is appended behind a possibly torn line;
//   - optional GC (max results / max bytes / max age) evicts in
//     least-recently-used order and appends an unsynced tombstone per
//     eviction. Eviction is safe against in-flight fetches: a fetched
//     slice stays valid (payloads are never mutated), and an evicted
//     entry simply re-executes on its next submission.
type Store struct {
	// Configuration, immutable after NewStore: declared above the
	// mutex so the guarded-field discipline (locksafe) does not bind
	// lock-free readers to it.
	dir           string // "" = memory only
	clock         Clock
	fs            fsutil.FS
	maxResults    int
	maxBytes      int64
	maxAge        time.Duration
	maxQuarantine int
	log           *storeLog  // nil = memory only
	audit         StoreAudit // the open-time replay

	mu       sync.Mutex
	mem      map[string]*storeEntry
	bytes    int64 // memory-tier payload bytes
	seq      int64 // access counter driving LRU order
	evicted  int64
	corrupt  int64
	qseq     int64  // last quarantine sequence number issued
	qlen     int    // quarantined entries currently on disk
	qevicted int64  // quarantined entries evicted by the bound
	degraded string // non-empty: disk tier is offline (mem-only mode)
}

// storeEntry is one memory-tier payload with its LRU bookkeeping.
type storeEntry struct {
	b       []byte
	lastUse int64     // access sequence number
	at      time.Time // when the payload was stored or loaded
}

// entryRef is an ID with its payload: an entry GC evicted, awaiting
// its tombstone, or a live one being rewritten into the log.
type entryRef struct {
	id string
	b  []byte
}

// storeLog is the disk tier: the append handle of the log and the
// byte accounting that triggers compaction. Its mutex serialises every
// log write, so records land in the order Put decided them under
// Store.mu; Get, Has and dedup answers never take it.
type storeLog struct {
	path string

	mu   sync.Mutex
	f    fsutil.File // nil until the log exists and is open
	live int64       // bytes of live records in the log
	dead int64       // bytes of evicted records and tombstones
}

// logRecord is one line of the log. A tombstone (Del) carries no
// payload: it records an eviction.
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
	// MaxResults bounds how many payloads are retained; <= 0 is
	// unlimited. Over the bound, least-recently-used entries are
	// evicted (memory and log).
	MaxResults int
	// MaxBytes bounds the memory-tier payload bytes; <= 0 unlimited.
	MaxBytes int64
	// MaxAge evicts entries not stored or loaded within the window;
	// <= 0 unlimited.
	MaxAge time.Duration
	// MaxQuarantine bounds how many corrupt entries the quarantine
	// directory retains; beyond it the oldest are deleted. <= 0 picks
	// the default (64) — the quarantine exists for forensics on recent
	// corruption and must not grow without limit on a flaky disk.
	MaxQuarantine int
	// Clock stamps entries for MaxAge; nil uses the wall clock.
	Clock Clock
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
	Evicted           int64
	Corrupt           int64
	QuarantineLen     int
	QuarantineEvicted int64
	Degraded          string
}

// NewStore returns a store persisting under cfg.Dir, or a purely
// in-memory store when cfg.Dir is empty. A disk-backed store replays
// its log before it returns; an IO error there degrades it to
// memory-only rather than failing.
func NewStore(cfg StoreConfig) (*Store, error) {
	clock := cfg.Clock
	if clock == nil {
		clock = realClock{}
	}
	fsys := cfg.FS
	if fsys == nil {
		fsys = fsutil.RealFS{}
	}
	maxQ := cfg.MaxQuarantine
	if maxQ <= 0 {
		maxQ = DefaultMaxQuarantine
	}
	s := &Store{
		mem:           make(map[string]*storeEntry),
		clock:         clock,
		fs:            fsys,
		maxResults:    cfg.MaxResults,
		maxBytes:      cfg.MaxBytes,
		maxAge:        cfg.MaxAge,
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
	if len(s.gcLocked()) > 0 {
		dirty = true
	}
	var werr error
	switch {
	case dirty:
		werr = s.log.rewriteLocked(s.fs, encodeLive(s.liveLocked()))
		s.audit.Rewritten = werr == nil
	case exists:
		werr = s.log.reopenLocked(s.fs, int64(len(raw)))
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
	now := s.clock.Now()
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
			if e, ok := s.mem[r.ID]; ok {
				delete(s.mem, r.ID)
				s.bytes -= int64(len(e.b))
			}
		default:
			s.audit.Verified++
			if old, dup := s.mem[r.ID]; dup {
				dirty = true
				s.bytes -= int64(len(old.b))
			}
			s.seq++
			s.mem[r.ID] = &storeEntry{b: r.Data, lastUse: s.seq, at: now}
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

// quarantineLocked counts one corrupt log line and keeps its bytes for
// forensics as quarantine/q%08d-<log name>. The monotonic sequence
// prefix makes the sorted listing arrival order, which is what lets
// the bound evict oldest-first. Callers hold s.mu.
func (s *Store) quarantineLocked(data []byte) {
	s.corrupt++
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

// Get returns the payload stored under id and marks it recently used.
func (s *Store) Get(id string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.mem[id]
	if !ok {
		return nil, false
	}
	s.seq++
	e.lastUse = s.seq
	return e.b, true
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
	ids := make([]string, 0, len(s.mem))
	for id := range s.mem { //lint:orderindependent ids are sorted below before use
		ids = append(ids, id)
	}
	sort.Strings(ids)
	bs := make([][]byte, len(ids))
	for i, id := range ids {
		bs[i] = s.mem[id].b
	}
	s.mu.Unlock()
	for i, id := range ids {
		if err := fn(id, bs[i]); err != nil {
			return err
		}
	}
	return nil
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
			s.insertLocked(it.ID, it.Data)
		}
		s.mu.Unlock()
		return
	}
	//lint:allow locksafe the log mutex serialises log writes so records land in the order PutBatch decides them under s.mu; Get, Has and dedup answers never take it, so no read waits on a flush
	s.log.mu.Lock()
	defer s.log.mu.Unlock()
	var batch logBatch
	s.mu.Lock()
	for _, it := range items {
		fresh, evicted := s.insertLocked(it.ID, it.Data)
		batch.add(it.ID, it.Data, fresh, evicted)
	}
	s.mu.Unlock()
	// Only a commit holding the log mutex degrades the store, so the
	// answer cannot change before this batch writes.
	if _, degraded := s.Degraded(); degraded {
		return
	}
	err := s.log.commitLocked(s.fs, &batch)
	if err == nil && s.log.dead > s.log.live {
		s.mu.Lock()
		live := s.liveLocked()
		s.mu.Unlock()
		err = s.log.rewriteLocked(s.fs, encodeLive(live))
	}
	if err != nil {
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

// insertLocked stores b under id unless the ID is already stored, then
// runs GC. It reports whether the entry is new and survived GC (so its
// record must be logged) and what GC evicted. Callers hold s.mu.
func (s *Store) insertLocked(id string, b []byte) (fresh bool, evicted []entryRef) {
	e, had := s.mem[id]
	if !had {
		s.seq++
		e = &storeEntry{b: b, lastUse: s.seq, at: s.clock.Now()}
		s.mem[id] = e
		s.bytes += int64(len(b))
	}
	evicted = s.gcLocked()
	if had || s.mem[id] == e {
		return !had, evicted
	}
	// GC evicted the new entry itself; it never reached the log.
	for i := range evicted {
		if evicted[i].id == id {
			evicted = append(evicted[:i], evicted[i+1:]...)
			break
		}
	}
	return false, evicted
}

// logBatch is one commit's lines and their byte accounting.
type logBatch struct {
	out        []byte
	live, dead int64 // changes to the log's live and dead bytes
	synced     bool  // holds a record, so the commit is a synced append
}

// add appends one Put's lines: a tombstone per evicted entry, then the
// record when the entry is new.
func (b *logBatch) add(id string, data []byte, fresh bool, evicted []entryRef) {
	for _, e := range evicted {
		tomb := encodeRecord(e.id, true, nil)
		b.out = append(b.out, tomb...)
		rec := int64(len(encodeRecord(e.id, false, e.b)))
		b.live -= rec
		b.dead += rec + int64(len(tomb))
	}
	if fresh {
		rec := encodeRecord(id, false, data)
		b.out = append(b.out, rec...)
		b.live += int64(len(rec))
		b.synced = true
	}
}

// commitLocked writes a batch. One holding a record is one synced
// append; tombstones alone are written without an fsync, since losing
// one only resurrects a valid result. Callers hold l.mu.
func (l *storeLog) commitLocked(fsys fsutil.FS, b *logBatch) error {
	if len(b.out) == 0 {
		return nil
	}
	if l.f == nil {
		if err := l.createLocked(fsys); err != nil {
			return err
		}
	}
	if !b.synced {
		if _, err := l.f.Write(b.out); err != nil {
			return fmt.Errorf("service: store log %s: %w", l.path, err)
		}
	} else if err := fsys.AppendSync(l.f, b.out); err != nil {
		return err
	}
	l.live += b.live
	l.dead += b.dead
	return nil
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
	return l.reopenLocked(fsys, int64(len(recs)))
}

// reopenLocked opens the existing log, holding live bytes of live
// records and nothing else, for appends. Callers hold l.mu.
func (l *storeLog) reopenLocked(fsys fsutil.FS, live int64) error {
	if l.f != nil {
		_ = l.f.Close() // every byte written through it was synced or is a tombstone
		l.f = nil
	}
	f, err := fsys.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("service: store log: %w", err)
	}
	l.f, l.live, l.dead = f, live, 0
	return nil
}

// liveLocked snapshots the memory tier least recently used first, the
// order a rewritten log keeps so that replay restores it. Callers hold
// s.mu.
func (s *Store) liveLocked() []entryRef {
	live := make([]entryRef, 0, len(s.mem))
	for id, e := range s.mem { //lint:orderindependent entries are re-sorted by LRU order below
		live = append(live, entryRef{id, e.b})
	}
	sort.Slice(live, func(i, j int) bool { return s.mem[live[i].id].lastUse < s.mem[live[j].id].lastUse })
	return live
}

// encodeLive renders entries as log records, in order.
func encodeLive(entries []entryRef) []byte {
	var out []byte
	for _, e := range entries {
		out = append(out, encodeRecord(e.id, false, e.b)...)
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

// gcLocked evicts least-recently-used entries until the store is back
// under its bounds and returns what it evicted, for the log's
// tombstones: an evicted ID re-executes on its next submission, which
// content addressing makes byte-identical. Callers hold s.mu.
func (s *Store) gcLocked() []entryRef {
	if s.maxResults <= 0 && s.maxBytes <= 0 && s.maxAge <= 0 {
		return nil
	}
	var evicted []entryRef
	if s.maxAge > 0 {
		now := s.clock.Now()
		var expired []string
		for id, e := range s.mem { //lint:orderindependent expired IDs are sorted before eviction
			if now.Sub(e.at) > s.maxAge {
				expired = append(expired, id)
			}
		}
		sort.Strings(expired)
		for _, id := range expired {
			evicted = append(evicted, s.evictLocked(id))
		}
	}
	over := func() bool {
		return (s.maxResults > 0 && len(s.mem) > s.maxResults) ||
			(s.maxBytes > 0 && s.bytes > s.maxBytes)
	}
	if !over() {
		return evicted
	}
	for _, c := range s.liveLocked() {
		if !over() {
			break
		}
		evicted = append(evicted, s.evictLocked(c.id))
	}
	return evicted
}

// evictLocked drops one entry from the memory tier. Callers hold s.mu.
func (s *Store) evictLocked(id string) entryRef {
	e := s.mem[id]
	delete(s.mem, id)
	s.bytes -= int64(len(e.b))
	s.evicted++
	return entryRef{id, e.b}
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
		Evicted:           s.evicted,
		Corrupt:           s.corrupt,
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
