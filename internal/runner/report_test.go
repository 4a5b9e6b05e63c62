package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestReporterSnapshotAndRunstate(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	r := NewReporter(cache, dir, &log)
	r.AddTotal(2)
	r.TaskStart(0, "case1/CENTRAL")

	s := r.Snapshot()
	if s.JobsTotal != 2 || s.JobsDone != 0 {
		t.Fatalf("snapshot %+v", s)
	}
	if len(s.Workers) != 1 || s.Workers[0].Job != "case1/CENTRAL" {
		t.Fatalf("worker status missing: %+v", s.Workers)
	}

	r.TaskDone(0, "case1/CENTRAL", nil)
	r.PointDone()
	r.Finish()

	b, err := os.ReadFile(filepath.Join(dir, runstateName))
	if err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.JobsDone != 1 || got.Points != 1 || !got.Done {
		t.Fatalf("runstate %+v", got)
	}
	if log.Len() == 0 {
		t.Fatal("no progress lines logged")
	}
}

func TestReporterETA(t *testing.T) {
	r := NewReporter(nil, "", nil)
	r.AddTotal(4)
	r.TaskStart(0, "a")
	r.TaskDone(0, "a", nil)
	s := r.Snapshot()
	if s.ETASec < 0 {
		t.Fatalf("no ETA once a job completed: %+v", s)
	}
}

// TestRunEndToEnd drives the Run façade: submit tasks through the pool
// into the disk cache, and confirm a second run over the directory
// reads the cache and the final runstate lands.
func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	run, err := Start(Options{Workers: 2, Dir: dir, Context: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]Key, 3)
	for i := range keys {
		if keys[i], err = KeyOf("test/v1", i); err != nil {
			t.Fatal(err)
		}
	}
	run.Report.AddTotal(len(keys))
	for i, k := range keys {
		i, k := i, k
		run.Pool.Submit(Task{ID: "job", Run: func(tc *TaskCtx) error {
			return run.Cache.Put(k, []byte{byte(i)})
		}})
	}
	if err := run.Wait(); err != nil {
		t.Fatal(err)
	}

	run2, err := Start(Options{Workers: 1, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if b, ok := run2.Cache.Get(k); !ok || len(b) != 1 || b[0] != byte(i) {
			t.Fatalf("second run lost cache entry %d: %v, %v", i, b, ok)
		}
	}
	if err := run2.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, runstateName)); err != nil {
		t.Fatal(err)
	}
}
