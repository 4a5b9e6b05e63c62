package runner

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"rmscale/internal/fsutil"
)

// journalName is the journal file inside a run directory.
const journalName = "journal.jsonl"

// journalVersion guards the on-disk format.
const journalVersion = 1

// Journal is the checkpoint log of a run: an append-only JSON-lines
// file in which every completed unit of work is recorded under a
// stable ID. Each record is written with a single append write, so an
// interrupted run leaves at most one truncated final line, which the
// loader discards; everything before it survives and seeds the resumed
// run.
//
// The first line is a header carrying a fingerprint of the run
// parameters (fidelity, seed, ...). Resuming with a different
// fingerprint is refused: a journal only ever replays into the exact
// run shape that wrote it.
type Journal struct {
	mu      sync.Mutex
	f       fsutil.File
	fs      fsutil.FS
	entries map[string]json.RawMessage
	dropped int
	failed  error // the first failed append; nothing is appended after it
}

type journalHeader struct {
	Header struct {
		Version     int    `json:"version"`
		Fingerprint string `json:"fingerprint"`
	} `json:"header"`
}

type journalRecord struct {
	ID   string          `json:"id"`
	Data json.RawMessage `json:"data"`
}

// OpenJournal opens (or creates) the journal in dir. When a journal
// with a matching fingerprint already exists its records are loaded
// and resumed reports true; a fingerprint or version mismatch is an
// error so stale checkpoints cannot silently corrupt a run.
func OpenJournal(dir, fingerprint string) (j *Journal, resumed bool, err error) {
	return OpenJournalFS(dir, fingerprint, fsutil.RealFS{})
}

// OpenJournalFS is OpenJournal with an injectable filesystem seam
// (fault-injection harnesses script append failures through it, the
// crash harness enumerates power cuts; nil means the real
// filesystem).
//
// Tail recovery: a journal whose file ends in a truncated or garbled
// line — the signature of a killed or faulty writer — is recovered to
// its longest valid prefix. The records of that prefix load normally,
// the file is truncated back to the prefix boundary (and the cut
// synced, so a second crash cannot resurrect the garbage under a
// later append), and Dropped reports how many lines were discarded.
// A file whose header line itself never became valid — a crash
// between journal creation and the header's fsync — recovers as a
// fresh journal with every damaged line counted in Dropped; only a
// VALID header naming the wrong fingerprint or version is refused,
// because that is a caller error, not crash damage.
func OpenJournalFS(dir, fingerprint string, fs fsutil.FS) (j *Journal, resumed bool, err error) {
	if fs == nil {
		fs = fsutil.RealFS{}
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, false, fmt.Errorf("runner: run dir: %w", err)
	}
	path := filepath.Join(dir, journalName)
	entries := make(map[string]json.RawMessage)
	dropped, validEnd := 0, int64(-1)
	if b, err := fs.ReadFile(path); err == nil && len(b) > 0 {
		hdr, recs, goodBytes, badLines, headerless := parseJournal(b)
		if headerless {
			dropped = badLines
			validEnd = 0
		} else {
			if hdr.Header.Version != journalVersion {
				return nil, false, fmt.Errorf("runner: journal %s has version %d, want %d",
					path, hdr.Header.Version, journalVersion)
			}
			if hdr.Header.Fingerprint != fingerprint {
				return nil, false, fmt.Errorf("runner: journal %s was written by a different run "+
					"(journal %q, this run %q); pass a fresh -resume directory or rerun with the "+
					"original parameters", path, hdr.Header.Fingerprint, fingerprint)
			}
			entries = recs
			resumed = true
			if badLines > 0 {
				dropped = badLines
				validEnd = int64(goodBytes)
			}
		}
	}
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, false, fmt.Errorf("runner: journal: %w", err)
	}
	if validEnd >= 0 {
		// Cut the garbage tail before the first append lands after it;
		// otherwise the next record would concatenate onto a partial
		// line and corrupt itself too. The sync commits the cut: an
		// unsynced truncation could resurrect the garbage tail after
		// the next power loss.
		if err := f.Truncate(validEnd); err != nil {
			f.Close()
			return nil, false, fmt.Errorf("runner: journal %s: truncating corrupt tail: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, false, fmt.Errorf("runner: journal %s: syncing truncated tail: %w", path, err)
		}
	}
	j = &Journal{f: f, fs: fs, entries: entries, dropped: dropped}
	if !resumed {
		var hdr journalHeader
		hdr.Header.Version = journalVersion
		hdr.Header.Fingerprint = fingerprint
		if err := j.appendLine(hdr); err != nil {
			f.Close()
			return nil, false, err
		}
		// A fresh journal's directory entry must be durable before the
		// first record is acknowledged, or a power cut could drop the
		// whole file while its records count as committed.
		if err := fs.SyncDir(dir); err != nil {
			f.Close()
			return nil, false, fmt.Errorf("runner: journal %s: syncing dir: %w", path, err)
		}
	}
	return j, resumed, nil
}

// parseJournal splits the file into header and records. Recovery is
// valid-prefix semantics: parsing stops at the first malformed record
// line (truncated tail or garbled bytes), goodBytes reports how far
// the valid prefix extends into b, and badLines counts the discarded
// remainder. Records past a garbled line are deliberately not trusted
// — a writer that corrupted one line may have corrupted what follows,
// and the caller truncates the file back to goodBytes anyway.
// A first line that is not a valid, terminated header reports
// headerless: the whole file is a dropped tail (badLines counts every
// non-empty line) and the caller starts the journal over.
func parseJournal(b []byte) (hdr journalHeader, recs map[string]json.RawMessage, goodBytes, badLines int, headerless bool) {
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	recs = make(map[string]json.RawMessage)
	first := true
	offset := 0
	for sc.Scan() {
		line := sc.Bytes()
		lineEnd := offset + len(line)
		if lineEnd < len(b) && b[lineEnd] == '\n' {
			lineEnd++
		}
		if len(line) == 0 {
			offset = lineEnd
			continue
		}
		// A line whose newline never landed was not durably committed,
		// even if its JSON happens to parse; keeping it would let the
		// next append concatenate onto it.
		unterminated := lineEnd == len(b) && b[len(b)-1] != '\n'
		if first {
			if err := json.Unmarshal(line, &hdr); err != nil || hdr.Header.Version == 0 || unterminated {
				badLines++
				for sc.Scan() {
					if len(sc.Bytes()) > 0 {
						badLines++
					}
				}
				return journalHeader{}, nil, 0, badLines, true
			}
			first = false
			offset = lineEnd
			goodBytes = offset
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.ID == "" || unterminated {
			// Invalid record: everything from here on is the dropped
			// tail. Count its lines and stop trusting the file.
			badLines++
			for sc.Scan() {
				if len(sc.Bytes()) > 0 {
					badLines++
				}
			}
			return hdr, recs, goodBytes, badLines, false
		}
		recs[rec.ID] = rec.Data
		offset = lineEnd
		goodBytes = offset
	}
	if first {
		// Only whitespace: treat as headerless with nothing to drop.
		return journalHeader{}, nil, 0, 0, true
	}
	return hdr, recs, goodBytes, badLines, false
}

// Dropped reports how many journal lines were discarded as a corrupt
// tail when the journal was opened (0 for a clean journal).
func (j *Journal) Dropped() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// appendLine writes one JSON line with a single write followed by an
// fsync, which is what makes each record an atomic commit point.
func (j *Journal) appendLine(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("runner: journal encode: %w", err)
	}
	if err := j.fs.AppendSync(j.f, append(b, '\n')); err != nil {
		return fmt.Errorf("runner: journal: %w", err)
	}
	return nil
}

// Record journals v as the completion of the work unit id. Recording an
// id that is already journaled is a no-op, which makes checkpointing
// idempotent across resumed runs. After a failed append, which may
// have left a torn line, Record appends nothing more and returns that
// failure: a record behind a torn line would be lost to tail recovery.
func (j *Journal) Record(id string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("runner: journal encode %s: %w", id, err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.entries[id]; ok {
		return nil
	}
	if j.failed != nil {
		return j.failed
	}
	if err := j.appendLine(journalRecord{ID: id, Data: data}); err != nil {
		j.failed = err
		return err
	}
	j.entries[id] = data
	return nil
}

// Lookup decodes the journaled payload for id into out, reporting
// whether id was found.
func (j *Journal) Lookup(id string, out any) (bool, error) {
	j.mu.Lock()
	data, ok := j.entries[id]
	j.mu.Unlock()
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return false, fmt.Errorf("runner: journal decode %s: %w", id, err)
	}
	return true, nil
}

// Each calls fn for every journaled record, in lexicographic ID order
// so iteration is deterministic regardless of append order. It is how
// a service restart discovers work that was accepted but not finished:
// the daemon replays the journal and re-queues every entry without a
// committed result. fn must not call back into the journal.
func (j *Journal) Each(fn func(id string, data json.RawMessage) error) error {
	j.mu.Lock()
	ids := make([]string, 0, len(j.entries))
	for id := range j.entries { //lint:orderindependent ids are re-sorted below before use
		ids = append(ids, id)
	}
	sort.Strings(ids)
	snapshot := make([]json.RawMessage, len(ids))
	for i, id := range ids {
		snapshot[i] = j.entries[id]
	}
	j.mu.Unlock()
	for i, id := range ids {
		if err := fn(id, snapshot[i]); err != nil {
			return err
		}
	}
	return nil
}

// Len reports how many completed work units the journal holds.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// Close releases the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
