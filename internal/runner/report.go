package runner

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"rmscale/internal/fsutil"
)

// runstateName is the machine-readable progress file inside a run
// directory.
const runstateName = "runstate.json"

// WorkerStatus is one worker's current occupation.
type WorkerStatus struct {
	Worker   int     `json:"worker"`
	Job      string  `json:"job"`
	SinceSec float64 `json:"since_sec"`
}

// Snapshot is a machine-readable progress report. It is what -v prints
// from and what runstate.json contains.
type Snapshot struct {
	JobsTotal    int            `json:"jobs_total"`
	JobsDone     int            `json:"jobs_done"`
	Points       int            `json:"points_done"`
	CacheHits    int64          `json:"cache_hits"`
	CacheMisses  int64          `json:"cache_misses"`
	CacheHitRate float64        `json:"cache_hit_rate"`
	ElapsedSec   float64        `json:"elapsed_sec"`
	ETASec       float64        `json:"eta_sec"`
	Workers      []WorkerStatus `json:"workers"`
	Done         bool           `json:"done"`
}

// String renders the one-line human progress summary.
func (s Snapshot) String() string {
	eta := "?"
	if s.ETASec >= 0 {
		eta = fmt.Sprintf("%ds", int(s.ETASec+0.5))
	}
	return fmt.Sprintf("jobs %d/%d, cache %.0f%% (%d/%d), elapsed %ds, eta %s",
		s.JobsDone, s.JobsTotal, 100*s.CacheHitRate, s.CacheHits,
		s.CacheHits+s.CacheMisses, int(s.ElapsedSec), eta)
}

// Reporter tracks run progress: jobs done versus total, cache hit
// rate, per-worker current job, and an elapsed-time ETA. Every state
// change rewrites runstate.json atomically (when the run has a
// directory) so an external observer — or a human with cat — can watch
// a long run without attaching to the process.
type Reporter struct {
	mu      sync.Mutex
	total   int
	done    int
	points  int
	started time.Time
	active  map[int]time.Time // worker -> task start
	jobs    map[int]string    // worker -> task id
	cache   *Cache
	dir     string    // "" = no runstate.json
	log     io.Writer // nil = silent
}

// NewReporter returns a reporter writing runstate.json under dir (when
// non-empty) and human progress lines to log (when non-nil).
func NewReporter(cache *Cache, dir string, log io.Writer) *Reporter {
	return &Reporter{
		started: time.Now(), //lint:allow detertaint progress-report start time; feeds ETA lines and runstate.json, never simulation results
		active:  make(map[int]time.Time),
		jobs:    make(map[int]string),
		cache:   cache,
		dir:     dir,
		log:     log,
	}
}

// AddTotal registers n more expected jobs.
func (r *Reporter) AddTotal(n int) {
	r.mu.Lock()
	r.total += n
	r.mu.Unlock()
	r.flush(false)
}

// PointDone counts one completed (model, k) tuning point.
func (r *Reporter) PointDone() {
	r.mu.Lock()
	r.points++
	r.mu.Unlock()
}

// TaskStart implements PoolObserver.
func (r *Reporter) TaskStart(worker int, id string) {
	r.mu.Lock()
	r.active[worker] = time.Now() //lint:allow detertaint per-task wall time for progress display only
	r.jobs[worker] = id
	r.mu.Unlock()
	r.flush(false)
}

// TaskDone implements PoolObserver.
func (r *Reporter) TaskDone(worker int, id string, err error) {
	r.mu.Lock()
	delete(r.active, worker)
	delete(r.jobs, worker)
	r.done++
	r.mu.Unlock()
	if r.log != nil {
		status := "done"
		if err != nil {
			status = "failed: " + err.Error()
		}
		fmt.Fprintf(r.log, "runner: %-24s %s [%s]\n", id, status, r.Snapshot().String())
	}
	r.flush(false)
}

// Snapshot captures the current progress.
func (r *Reporter) Snapshot() Snapshot {
	return r.snapshot(false)
}

func (r *Reporter) snapshot(done bool) Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now() //lint:allow detertaint elapsed/ETA fields of the progress snapshot; results carry no wall time
	s := Snapshot{
		JobsTotal:  r.total,
		JobsDone:   r.done,
		Points:     r.points,
		ElapsedSec: now.Sub(r.started).Seconds(),
		ETASec:     -1,
		Done:       done,
	}
	if r.cache != nil {
		s.CacheHits, s.CacheMisses = r.cache.Stats()
		s.CacheHitRate = r.cache.HitRate()
	}
	if r.done > 0 && r.total > r.done {
		perJob := s.ElapsedSec / float64(r.done)
		s.ETASec = perJob * float64(r.total-r.done)
	} else if r.total == r.done {
		s.ETASec = 0
	}
	//lint:orderindependent now.Sub is a pure computation and the worker list is re-sorted by id on the next line
	for w, since := range r.active {
		s.Workers = append(s.Workers, WorkerStatus{
			Worker:   w,
			Job:      r.jobs[w],
			SinceSec: now.Sub(since).Seconds(),
		})
	}
	sort.Slice(s.Workers, func(i, j int) bool { return s.Workers[i].Worker < s.Workers[j].Worker })
	return s
}

// Finish marks the run complete and writes the final runstate.
func (r *Reporter) Finish() {
	r.flush(true)
	if r.log != nil {
		fmt.Fprintf(r.log, "runner: finished [%s]\n", r.snapshot(true).String())
	}
}

// flush rewrites runstate.json; failures are deliberately ignored — a
// progress file must never abort the experiment it describes.
func (r *Reporter) flush(done bool) {
	if r.dir == "" {
		return
	}
	b, err := json.MarshalIndent(r.snapshot(done), "", "  ")
	if err != nil {
		return
	}
	_ = fsutil.WriteFileAtomic(filepath.Join(r.dir, runstateName), append(b, '\n'), 0o644)
}
