package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rmscale/internal/fsutil"
)

// failFS is an fsutil.FS whose durable writes always fail — the
// smallest disk-fault injection.
type failFS struct {
	fsutil.RealFS
	err error
}

func (f failFS) WriteFileAtomic(string, []byte, os.FileMode) error { return f.err }
func (f failFS) AppendSync(fsutil.File, []byte) error              { return f.err }

func mustNewStore(t *testing.T, cfg StoreConfig) *Store {
	t.Helper()
	s, err := NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// logLines returns the result log's lines under the service directory
// dir, newlines stripped; a missing log has none.
func logLines(t *testing.T, dir string) [][]byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "results", logName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Split(bytes.TrimSuffix(b, []byte("\n")), []byte("\n"))
}

// editLogRecord replaces the log line holding id's record with
// edit(line) behind the store's back; a nil result drops the line.
func editLogRecord(t *testing.T, dir, id string, edit func(line []byte) []byte) {
	t.Helper()
	var out []byte
	found := false
	for _, line := range logLines(t, dir) {
		if r, ok := decodeRecord(line); ok && r.ID == id && !r.Del && !found {
			found = true
			line = edit(line)
			if line == nil {
				continue
			}
		}
		out = append(append(out, line...), '\n')
	}
	if !found {
		t.Fatalf("no log record for %s", id)
	}
	if err := os.WriteFile(filepath.Join(dir, "results", logName), out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// corruptOnDisk swaps id's logged payload for other bytes under the
// old checksum, so the next replay quarantines the record.
func corruptOnDisk(t *testing.T, dir, id string) {
	t.Helper()
	editLogRecord(t, dir, id, func(line []byte) []byte {
		var r logRecord
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatal(err)
		}
		r.Data = []byte(`{"tampered":true}` + "\n")
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	})
}

// dirImage reads every file under root, path -> bytes.
func dirImage(t *testing.T, root string) map[string]string {
	t.Helper()
	img := map[string]string{}
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		img[strings.TrimPrefix(path, root)] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestStoreChecksumQuarantine pins the integrity contract: a log
// record whose payload or ID no longer matches its checksum is
// quarantined at open and never served, and the other records still
// are.
func TestStoreChecksumQuarantine(t *testing.T) {
	dir := t.TempDir()
	s1 := mustNewStore(t, StoreConfig{Dir: dir})
	s1.Put("aaa", []byte(`{"summary":1}`+"\n"))
	s1.Put("bbb", []byte(`{"summary":2}`+"\n"))
	s1.Put("ccc", []byte(`{"summary":3}`+"\n"))
	s1.Close()

	// Damage aaa's payload, and relabel ccc's record as bbb's: a
	// misattributed record must not serve ccc's bytes under bbb.
	corruptOnDisk(t, dir, "aaa")
	editLogRecord(t, dir, "ccc", func(line []byte) []byte {
		return bytes.Replace(line, []byte(`"id":"ccc"`), []byte(`"id":"bbb"`), 1)
	})

	s2 := mustNewStore(t, StoreConfig{Dir: dir})
	if _, ok := s2.Get("aaa"); ok {
		t.Fatal("corrupt payload served")
	}
	if b, ok := s2.Get("bbb"); !ok || string(b) != `{"summary":2}`+"\n" {
		t.Fatalf("bbb = %q, %v; want its own bytes", b, ok)
	}
	if st := s2.Stats(); st.Corrupt != 2 || st.QuarantineLen != 2 {
		t.Fatalf("stats = %+v, want corrupt=2 qlen=2", st)
	}
	quarantined, err := filepath.Glob(filepath.Join(dir, "results", "quarantine", "q*-"+logName))
	if err != nil || len(quarantined) != 2 {
		t.Fatalf("corrupt records not quarantined: %v (%v)", quarantined, err)
	}
	if q, _ := os.ReadFile(quarantined[0]); !bytes.Contains(q, []byte(`"id":"aaa"`)) {
		t.Fatalf("quarantine holds %q, want aaa's damaged line", q)
	}
	// The rewrite left exactly the live record.
	if lines := logLines(t, dir); len(lines) != 1 || !bytes.Contains(lines[0], []byte(`"id":"bbb"`)) {
		t.Fatalf("log after rewrite = %q, want bbb's record alone", lines)
	}
	// Has agrees with Get, so restart resume re-executes.
	if s2.Has("aaa") || s2.Has("ccc") {
		t.Fatal("Has accepted a quarantined record")
	}
}

// TestStoreLegacyBackfill: a payload an earlier store generation wrote
// without a checksum sidecar is adopted at open and folded into the
// log, and the legacy file goes.
func TestStoreLegacyBackfill(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "results"), 0o755); err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"legacy":true}` + "\n")
	if err := os.WriteFile(filepath.Join(dir, "results", "bbb.json"), payload, 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustNewStore(t, StoreConfig{Dir: dir})
	b, ok := s.Get("bbb")
	if !ok || string(b) != string(payload) {
		t.Fatalf("legacy entry not served: ok=%v b=%q", ok, b)
	}
	if a := s.Audit(); a.Imported != 1 || !a.Rewritten {
		t.Fatalf("audit = %+v, want imported=1 rewritten", a)
	}
	if _, err := os.Stat(filepath.Join(dir, "results", "bbb.json")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("legacy payload file left behind")
	}
	lines := logLines(t, dir)
	if r, ok := decodeRecord(lines[0]); len(lines) != 1 || !ok || r.ID != "bbb" || !bytes.Equal(r.Data, payload) {
		t.Fatalf("log = %q, want bbb's record", lines)
	}
}

// TestStoreLRUEviction pins size-bounded GC: over MaxResults, the
// least recently used entry is evicted from memory and, by its
// tombstone, from the log.
func TestStoreLRUEviction(t *testing.T) {
	dir := t.TempDir()
	s := mustNewStore(t, StoreConfig{Dir: dir, MaxResults: 2})
	s.Put("a", []byte("payload-a"))
	s.Put("b", []byte("payload-b"))
	if _, ok := s.Get("a"); !ok { // touch a: b becomes the LRU entry
		t.Fatal("a missing before eviction")
	}
	s.Put("c", []byte("payload-c"))

	if st := s.Stats(); st.Len != 2 || st.Evicted != 1 {
		t.Fatalf("stats = len %d evicted %d, want 2/1", st.Len, st.Evicted)
	}
	if _, ok := s.Get("b"); ok {
		t.Fatal("LRU entry b still served")
	}
	for _, id := range []string{"a", "c"} {
		if _, ok := s.Get(id); !ok {
			t.Fatalf("survivor %s missing", id)
		}
	}
	s.Close()
	reopened := mustNewStore(t, StoreConfig{Dir: dir, MaxResults: 2})
	if reopened.Has("b") || !reopened.Has("a") || !reopened.Has("c") {
		t.Fatal("the log does not replay the eviction")
	}
}

// TestStoreGCBoundsTheLog: dead bytes (evicted records and their
// tombstones) never outweigh live ones for long — the log is rewritten
// as its live records once they do, so a bounded store's disk stays
// bounded.
func TestStoreGCBoundsTheLog(t *testing.T) {
	dir := t.TempDir()
	s := mustNewStore(t, StoreConfig{Dir: dir, MaxResults: 2})
	for k := 0; k < 20; k++ {
		s.Put(fmt.Sprintf("id%02d", k), []byte(strings.Repeat("x", 40+k)))
		if lines := logLines(t, dir); len(lines) > 6 {
			t.Fatalf("after %d puts the log holds %d lines for 2 live results", k+1, len(lines))
		}
	}
	if _, degraded := s.Degraded(); degraded {
		t.Fatal("compaction degraded the store")
	}
	s.Close()
	s2 := mustNewStore(t, StoreConfig{Dir: dir, MaxResults: 2})
	if s2.Len() != 2 || !s2.Has("id18") || !s2.Has("id19") {
		t.Fatalf("reopened store holds %d results, want id18 and id19", s2.Len())
	}
}

// TestStoreMaxBytes: the byte bound evicts in LRU order too, and the
// accounting tracks the memory tier exactly.
func TestStoreMaxBytes(t *testing.T) {
	s := mustNewStore(t, StoreConfig{MaxBytes: 20})
	s.Put("a", make([]byte, 10))
	s.Put("b", make([]byte, 10))
	if st := s.Stats(); st.Bytes != 20 || st.Len != 2 {
		t.Fatalf("stats = bytes %d len %d, want 20/2", st.Bytes, st.Len)
	}
	s.Put("c", make([]byte, 10))
	st := s.Stats()
	if st.Bytes > 20 || st.Evicted != 1 {
		t.Fatalf("stats = bytes %d evicted %d, want <=20 bytes after 1 eviction", st.Bytes, st.Evicted)
	}
	if _, ok := s.Get("a"); ok {
		t.Fatal("LRU entry a survived the byte bound")
	}
}

// TestStoreMaxAge: entries older than MaxAge on the injected clock are
// evicted at the next GC opportunity.
func TestStoreMaxAge(t *testing.T) {
	clk := newFakeClock()
	s := mustNewStore(t, StoreConfig{MaxAge: time.Hour, Clock: clk})
	s.Put("old", []byte("x"))
	clk.advance(2 * time.Hour)
	s.Put("new", []byte("y")) // Put runs GC
	if _, ok := s.Get("old"); ok {
		t.Fatal("expired entry still served")
	}
	if _, ok := s.Get("new"); !ok {
		t.Fatal("fresh entry missing")
	}
	if st := s.Stats(); st.Evicted != 1 || st.Len != 1 {
		t.Fatalf("stats = evicted %d len %d, want 1/1", st.Evicted, st.Len)
	}
}

// TestStoreEvictionSafeForInflightFetches: a slice fetched before an
// eviction stays valid and unchanged — payloads are never mutated or
// recycled.
func TestStoreEvictionSafeForInflightFetches(t *testing.T) {
	s := mustNewStore(t, StoreConfig{MaxResults: 1})
	s.Put("a", []byte("held-bytes"))
	held, ok := s.Get("a")
	if !ok {
		t.Fatal("a missing")
	}
	s.Put("b", []byte("evicts-a"))
	if _, ok := s.Get("a"); ok {
		t.Fatal("a not evicted")
	}
	if string(held) != "held-bytes" {
		t.Fatalf("in-flight fetch corrupted by eviction: %q", held)
	}
}

// TestStoreDegradedMemOnly pins graceful degradation: a failing disk
// never fails a Put — the store keeps serving from memory and reports
// why durability is gone.
func TestStoreDegradedMemOnly(t *testing.T) {
	dir := t.TempDir()
	s := mustNewStore(t, StoreConfig{Dir: dir, FS: failFS{err: errors.New("disk full")}})
	s.Put("a", []byte("mem-only"))
	b, ok := s.Get("a")
	if !ok || string(b) != "mem-only" {
		t.Fatalf("memory tier lost the payload: ok=%v b=%q", ok, b)
	}
	why, degraded := s.Degraded()
	if !degraded || why != "disk full" {
		t.Fatalf("degraded = %v %q, want true \"disk full\"", degraded, why)
	}
	if lines := logLines(t, dir); len(lines) > 0 && len(lines[0]) > 0 {
		t.Fatalf("payload reached the log despite the failing FS: %q", lines)
	}
	if st := s.Stats(); st.Degraded == "" {
		t.Fatal("stats does not surface degradation")
	}
}

// TestStoreQuarantineBound pins the quarantine cap: the oldest entries
// are evicted first, and the accounting is visible in Stats and
// survives a restart.
func TestStoreQuarantineBound(t *testing.T) {
	dir := t.TempDir()
	s1 := mustNewStore(t, StoreConfig{Dir: dir})
	ids := []string{"qa", "qb", "qc", "qd"}
	for _, id := range ids {
		s1.Put(id, []byte("payload-"+id))
	}
	s1.Close()
	for _, id := range ids {
		corruptOnDisk(t, dir, id)
	}
	// The replay quarantines each record in log order; the cap of 2
	// must keep only the two newest.
	s2 := mustNewStore(t, StoreConfig{Dir: dir, MaxQuarantine: 2})
	for _, id := range ids {
		if _, ok := s2.Get(id); ok {
			t.Fatalf("corrupt payload %s served", id)
		}
	}
	st := s2.Stats()
	if st.QuarantineLen != 2 || st.QuarantineEvicted != 2 || st.Corrupt != 4 {
		t.Fatalf("stats = %+v, want qlen=2 qevicted=2 corrupt=4", st)
	}
	// Oldest-first: qa and qb are gone, qc and qd retained.
	kept, _ := filepath.Glob(filepath.Join(dir, "results", "quarantine", "q*-"+logName))
	if len(kept) != 2 {
		t.Fatalf("quarantine holds %v, want 2 entries", kept)
	}
	for i, id := range []string{"qc", "qd"} {
		if q, _ := os.ReadFile(kept[i]); !bytes.Contains(q, []byte(`"id":"`+id+`"`)) {
			t.Fatalf("quarantine entry %d holds %q, want %s's line", i, q, id)
		}
	}
	// A restart recovers the bookkeeping (and keeps names monotonic).
	s3 := mustNewStore(t, StoreConfig{Dir: dir, MaxQuarantine: 2})
	if st := s3.Stats(); st.QuarantineLen != 2 {
		t.Fatalf("restart lost quarantine accounting: %+v", st)
	}
}

// TestStoreAudit pins the open-time replay over a directory an earlier
// store generation wrote — valid payload/sidecar pairs, one corrupt
// pair, one sidecar-less payload, one orphaned temp file: every valid
// result is served byte-identical, the corrupt pair is quarantined, no
// pair or temp file is left, and a second open changes no byte. A torn
// append then heals the same way.
func TestStoreAudit(t *testing.T) {
	dir := t.TempDir()
	rdir := filepath.Join(dir, "results")
	if err := os.MkdirAll(rdir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(rdir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]string{"good1": "fine-1\n", "good2": "fine-2\n", "legacy": "no sidecar\n"}
	for _, id := range []string{"good1", "good2"} {
		write(id+".json", want[id])
		write(id+".json.sha256", sidecarSum([]byte(want[id]))+"\n")
	}
	write("legacy.json", want["legacy"])
	write("bad.json", "rotted\n")
	write("bad.json.sha256", sidecarSum([]byte("original\n"))+"\n")
	write(".orphan.json.tmp", "partial")

	s1 := mustNewStore(t, StoreConfig{Dir: dir})
	a := s1.Audit()
	if a != (StoreAudit{Imported: 3, Quarantined: 1, TempsCleaned: 1, Rewritten: true}) {
		t.Fatalf("audit = %+v, want imported=3 quarantined=1 temps=1 rewritten", a)
	}
	for id, w := range want {
		if b, ok := s1.Get(id); !ok || string(b) != w {
			t.Fatalf("%s = %q, %v; want %q", id, b, ok, w)
		}
	}
	if _, ok := s1.Get("bad"); ok {
		t.Fatal("corrupt legacy pair served")
	}
	names, _ := os.ReadDir(rdir)
	for _, n := range names {
		if n.Name() != logName && n.Name() != "quarantine" {
			t.Fatalf("%s left in results/ after the import", n.Name())
		}
	}
	if q, _ := filepath.Glob(filepath.Join(rdir, "quarantine", "q*-bad.json")); len(q) != 1 {
		t.Fatalf("corrupt pair not quarantined: %v", q)
	} else if b, _ := os.ReadFile(q[0]); string(b) != "rotted\n" {
		t.Fatalf("quarantine holds %q, want the corrupt payload", b)
	}
	s1.Close()

	// Idempotent: a second open verifies the same records and repairs
	// nothing.
	before := dirImage(t, dir)
	s2 := mustNewStore(t, StoreConfig{Dir: dir})
	if a := s2.Audit(); a != (StoreAudit{Verified: 3}) {
		t.Fatalf("second audit = %+v, want verified=3 and nothing repaired", a)
	}
	s2.Close()
	if after := dirImage(t, dir); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatal("a second open changed the directory")
	}

	// A torn append (a crash mid-write) is dropped by one rewrite.
	f, err := os.OpenFile(filepath.Join(rdir, logName), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"id":"torn","sum":"`)
	f.Close()
	s3 := mustNewStore(t, StoreConfig{Dir: dir})
	if a := s3.Audit(); a != (StoreAudit{Verified: 3, Rewritten: true}) {
		t.Fatalf("audit over a torn tail = %+v, want verified=3 rewritten", a)
	}
	s3.Close()
	if after := dirImage(t, dir); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatal("the rewrite did not restore the healed log byte for byte")
	}
}

// countFS counts the filesystem calls a store makes.
type countFS struct {
	fsutil.RealFS
	mu sync.Mutex
	n  map[string]int
}

func (c *countFS) count(op string) {
	c.mu.Lock()
	c.n[op]++
	c.mu.Unlock()
}

func (c *countFS) OpenFile(name string, flag int, perm os.FileMode) (fsutil.File, error) {
	c.count("OpenFile")
	return c.RealFS.OpenFile(name, flag, perm)
}

func (c *countFS) Rename(oldpath, newpath string) error {
	c.count("Rename")
	return c.RealFS.Rename(oldpath, newpath)
}

func (c *countFS) Remove(name string) error {
	c.count("Remove")
	return c.RealFS.Remove(name)
}

func (c *countFS) SyncDir(dir string) error {
	c.count("SyncDir")
	return c.RealFS.SyncDir(dir)
}

func (c *countFS) WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	c.count("WriteFileAtomic")
	return c.RealFS.WriteFileAtomic(path, data, perm)
}

func (c *countFS) AppendSync(f fsutil.File, b []byte) error {
	c.count("AppendSync")
	return c.RealFS.AppendSync(f, b)
}

// take returns the counts since the last call and resets them.
func (c *countFS) take() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.n
	c.n = map[string]int{}
	return n
}

// TestStorePutIOShape pins the write path's filesystem calls: opening
// a fresh directory writes nothing, the first Put creates the log (one
// OpenFile, one SyncDir) and every Put commits with exactly one
// AppendSync — no file creation, rename, directory sync or atomic
// write. Storing an ID again does no IO at all.
func TestStorePutIOShape(t *testing.T) {
	fsys := &countFS{n: map[string]int{}}
	s := mustNewStore(t, StoreConfig{Dir: t.TempDir(), FS: fsys})
	if n := fsys.take(); len(n) != 0 {
		t.Fatalf("opening a fresh store issued %v", n)
	}
	s.Put("first", []byte("payload-1"))
	if n := fsys.take(); fmt.Sprint(n) != "map[AppendSync:1 OpenFile:1 SyncDir:1]" {
		t.Fatalf("first Put issued %v, want one OpenFile, one SyncDir, one AppendSync", n)
	}
	for k := 0; k < 5; k++ {
		s.Put(fmt.Sprintf("id%d", k), []byte("payload"))
		if n := fsys.take(); fmt.Sprint(n) != "map[AppendSync:1]" {
			t.Fatalf("Put %d issued %v, want exactly one AppendSync", k, n)
		}
	}
	s.Put("first", []byte("payload-1"))
	if n := fsys.take(); len(n) != 0 {
		t.Fatalf("re-storing an ID issued %v, want no IO", n)
	}
	for _, k := range []int{2, 7} {
		batch := make([]StoreItem, k)
		for i := range batch {
			batch[i] = StoreItem{ID: fmt.Sprintf("batch%d-%d", k, i), Data: []byte("payload")}
		}
		s.PutBatch(batch)
		if n := fsys.take(); fmt.Sprint(n) != "map[AppendSync:1]" {
			t.Fatalf("a batch of %d results issued %v, want exactly one AppendSync", k, n)
		}
	}
}

// TestStoreBatchMatchesPuts: a batch commit writes the bytes the same
// Puts write one by one, GC tombstones included (f evicts c, an
// earlier item of its own batch), and its replay is the live store.
// The evicted payloads are small, so neither side compacts.
func TestStoreBatchMatchesPuts(t *testing.T) {
	big := func(c byte) []byte { return bytes.Repeat([]byte{c}, 1000) }
	items := []StoreItem{
		{ID: "c", Data: []byte("payload-c")},
		{ID: "a", Data: []byte("payload-a")}, // already stored: no record
		{ID: "d", Data: big('d')},
		{ID: "e", Data: big('e')},
		{ID: "f", Data: big('f')},
	}
	var logs [2][]byte
	for side, batched := range []bool{false, true} {
		dir := t.TempDir()
		s := mustNewStore(t, StoreConfig{Dir: dir, MaxResults: 3})
		s.Put("a", []byte("payload-a"))
		s.Put("b", []byte("payload-b"))
		if batched {
			s.PutBatch(items)
		} else {
			for _, it := range items {
				s.Put(it.ID, it.Data)
			}
		}
		if why, degraded := s.Degraded(); degraded {
			t.Fatalf("store degraded: %s", why)
		}
		b, err := os.ReadFile(filepath.Join(dir, "results", logName))
		if err != nil {
			t.Fatal(err)
		}
		logs[side] = b
		s.Close()
		re := mustNewStore(t, StoreConfig{Dir: dir, MaxResults: 3})
		for _, id := range []string{"a", "b", "c", "d", "e", "f"} {
			live, _ := s.Get(id)
			replayed, _ := re.Get(id)
			if !bytes.Equal(live, replayed) {
				t.Fatalf("batched=%v: %s live %q, replayed %q", batched, id, live, replayed)
			}
		}
	}
	if !bytes.Equal(logs[0], logs[1]) {
		t.Fatalf("batch log differs from one-by-one Puts:\n%s\nvs\n%s", logs[1], logs[0])
	}
	if n := bytes.Count(logs[1], []byte(`"del":true`)); n != 3 {
		t.Fatalf("log holds %d tombstones, want 3 (a, b, c)", n)
	}
}

// TestStoreConcurrentPuts: Puts, Gets and GC from several goroutines
// at once leave a log whose replay is exactly the live memory tier,
// each payload byte-identical.
func TestStoreConcurrentPuts(t *testing.T) {
	dir := t.TempDir()
	s := mustNewStore(t, StoreConfig{Dir: dir, MaxResults: 12})
	payload := func(id string) []byte { return []byte("payload-of-" + id) }
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 40; k++ {
				id := fmt.Sprintf("id%02d", (g*7+k)%30)
				s.Put(id, payload(id))
				if b, ok := s.Get(id); ok && !bytes.Equal(b, payload(id)) {
					t.Errorf("%s served %q", id, b)
				}
			}
		}(g)
	}
	wg.Wait()
	if _, degraded := s.Degraded(); degraded {
		t.Fatal("concurrent Puts degraded the store")
	}
	s.Close()
	s2 := mustNewStore(t, StoreConfig{Dir: dir, MaxResults: 12})
	if s2.Len() != s.Len() {
		t.Fatalf("replay holds %d results, the live store held %d", s2.Len(), s.Len())
	}
	for k := 0; k < 30; k++ {
		id := fmt.Sprintf("id%02d", k)
		if s.Has(id) != s2.Has(id) {
			t.Fatalf("%s: live store has=%v, replay has=%v", id, s.Has(id), s2.Has(id))
		}
		if b, ok := s2.Get(id); ok && !bytes.Equal(b, payload(id)) {
			t.Fatalf("replay serves %s as %q", id, b)
		}
	}
}
