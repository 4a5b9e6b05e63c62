package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsEveryTask(t *testing.T) {
	p := NewPool(context.Background(), 4, nil)
	var ran atomic.Int64
	for i := 0; i < 100; i++ {
		p.Submit(Task{ID: fmt.Sprintf("t%d", i), Run: func(tc *TaskCtx) error {
			ran.Add(1)
			return nil
		}})
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 100 {
		t.Fatalf("ran %d of 100 tasks", ran.Load())
	}
}

func TestPoolDefaultsToGOMAXPROCS(t *testing.T) {
	p := NewPool(context.Background(), 0, nil)
	if len(p.workers) < 1 {
		t.Fatalf("pool has %d workers", len(p.workers))
	}
	p.Submit(Task{ID: "noop", Run: func(tc *TaskCtx) error { return nil }})
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolStealsSpawnedWork submits one parent that spawns many slow
// subtasks onto its own deque and checks that siblings steal them: the
// subtasks must run on more than one worker.
func TestPoolStealsSpawnedWork(t *testing.T) {
	p := NewPool(context.Background(), 4, nil)
	var mu sync.Mutex
	workers := make(map[int]int)
	p.Submit(Task{ID: "parent", Run: func(tc *TaskCtx) error {
		for i := 0; i < 32; i++ {
			tc.Spawn(Task{ID: fmt.Sprintf("child%d", i), Run: func(tc *TaskCtx) error {
				mu.Lock()
				workers[tc.w.id]++
				mu.Unlock()
				time.Sleep(2 * time.Millisecond) // long enough for thieves to wake
				return nil
			}})
		}
		return nil
	}})
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range workers {
		total += n
	}
	if total != 32 {
		t.Fatalf("ran %d of 32 spawned tasks", total)
	}
	if len(workers) < 2 {
		t.Fatalf("all spawned tasks ran on one worker; stealing never happened: %v", workers)
	}
}

func TestPoolContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := NewPool(ctx, 2, nil)
	started := make(chan struct{})
	var once sync.Once
	for i := 0; i < 20; i++ {
		p.Submit(Task{ID: fmt.Sprintf("t%d", i), Run: func(tc *TaskCtx) error {
			once.Do(func() { close(started) })
			<-tc.Done()
			return tc.Err()
		}})
	}
	<-started
	cancel()
	if err := p.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait returned %v, want context.Canceled", err)
	}
}

func TestPoolRecoversPanics(t *testing.T) {
	p := NewPool(context.Background(), 2, nil)
	p.Submit(Task{ID: "panics", Run: func(tc *TaskCtx) error { panic("kaboom") }})
	err := p.Wait()
	if err == nil {
		t.Fatal("panic was swallowed")
	}
}

// TestPoolPanicCarriesStack: the converted panic error must identify
// the task and carry the goroutine stack, so a failure in hour ten of
// a sweep is still debuggable from the error alone.
func TestPoolPanicCarriesStack(t *testing.T) {
	p := NewPool(context.Background(), 2, nil)
	p.Submit(Task{ID: "exploder", Run: func(tc *TaskCtx) error { panic("kaboom") }})
	err := p.Wait()
	if err == nil {
		t.Fatal("panic was swallowed")
	}
	for _, want := range []string{"exploder", "kaboom", "goroutine", "pool_test.go"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("panic error lacks %q:\n%v", want, err)
		}
	}
}

// TestPoolKeepGoingCompletesRest: a panicking task surfaces as that
// task's error while every other task still runs to completion, and
// Wait joins all the errors.
func TestPoolKeepGoingCompletesRest(t *testing.T) {
	p := NewPool(context.Background(), 2, nil)
	boom := errors.New("boom")
	var ran atomic.Int64
	p.Submit(Task{ID: "panics", Run: func(tc *TaskCtx) error { panic("kaboom") }})
	p.Submit(Task{ID: "fails", Run: func(tc *TaskCtx) error { return boom }})
	for i := 0; i < 50; i++ {
		p.Submit(Task{ID: fmt.Sprintf("ok%d", i), Run: func(tc *TaskCtx) error {
			if tc.Err() != nil {
				return tc.Err()
			}
			ran.Add(1)
			time.Sleep(time.Millisecond)
			return nil
		}})
	}
	err := p.Wait()
	if err == nil {
		t.Fatal("task errors were swallowed")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("joined error lost the plain task error: %v", err)
	}
	if !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("joined error lost the panic: %v", err)
	}
	if ran.Load() != 50 {
		t.Fatalf("only %d of 50 healthy tasks completed after the failures", ran.Load())
	}
}

type recordingObserver struct {
	mu      sync.Mutex
	started []string
	done    []string
}

func (o *recordingObserver) TaskStart(w int, id string) {
	o.mu.Lock()
	o.started = append(o.started, id)
	o.mu.Unlock()
}

func (o *recordingObserver) TaskDone(w int, id string, err error) {
	o.mu.Lock()
	o.done = append(o.done, id)
	o.mu.Unlock()
}

func TestPoolObserverSeesLifecycle(t *testing.T) {
	obs := &recordingObserver{}
	p := NewPool(context.Background(), 2, obs)
	for i := 0; i < 5; i++ {
		p.Submit(Task{ID: fmt.Sprintf("t%d", i), Run: func(tc *TaskCtx) error { return nil }})
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(obs.started) != 5 || len(obs.done) != 5 {
		t.Fatalf("observer saw %d starts, %d dones, want 5/5", len(obs.started), len(obs.done))
	}
}
