package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Task is one schedulable unit of experiment work. Tasks must be safe
// to run concurrently with each other; the pool guarantees each task
// runs exactly once (or not at all after cancellation).
type Task struct {
	// ID names the task in progress output, e.g. "case1/CENTRAL".
	ID string
	// Run does the work. It should return promptly once ctx.Err() is
	// non-nil; a non-nil error cancels the whole pool.
	Run func(ctx *TaskCtx) error
}

// TaskCtx is the execution context handed to a running task. It embeds
// the pool's cancellation context and lets the task spawn subtasks onto
// its worker's local deque, where sibling workers can steal them.
type TaskCtx struct {
	context.Context
	w *worker
}

// Spawn schedules a subtask. It is pushed onto the bottom of the
// current worker's deque: the spawning worker continues depth-first
// while idle workers steal from the top, which is the classic
// work-stealing discipline (local LIFO, steal FIFO).
func (tc *TaskCtx) Spawn(t Task) { tc.w.pool.spawn(tc.w, t) }

// worker is one executor with a private deque.
type worker struct {
	id    int
	pool  *Pool
	deque []Task // bottom = end of slice (local push/pop), top = index 0 (steal)
}

// Pool is a work-stealing task executor: each worker owns a deque,
// externally submitted tasks enter a shared injection queue, and idle
// workers steal the oldest task from the busiest sibling. A single
// mutex guards all queues — tasks here are whole simulation/tuning
// runs, hundreds of milliseconds each, so queue contention is nil and
// the simple locking keeps the scheduler race-free by construction.
type Pool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	workers []*worker
	global  []Task  // FIFO injection queue
	pending int     // submitted + spawned tasks not yet finished
	closed  bool    // Wait called; no further Submit allowed
	err     error   // first task error
	errs    []error // every task error, in completion order (keep-going mode)

	// keepGoing, when set, stops a task error from cancelling the pool:
	// the remaining tasks complete and Wait returns every error joined.
	keepGoing bool

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	observer PoolObserver
}

// PoolObserver receives worker lifecycle events (for progress
// reporting). Callbacks run on worker goroutines and must be fast.
type PoolObserver interface {
	TaskStart(worker int, id string)
	TaskDone(worker int, id string, err error)
}

// NewPool starts a pool with the given number of workers; n <= 0 picks
// GOMAXPROCS. The pool stops early when ctx is cancelled or a task
// fails.
func NewPool(ctx context.Context, n int, obs PoolObserver) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	pctx, cancel := context.WithCancel(ctx)
	p := &Pool{
		ctx:      pctx,
		cancel:   cancel,
		observer: obs,
	}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < n; i++ {
		p.workers = append(p.workers, &worker{id: i, pool: p})
	}
	// Wake blocked workers when the parent context dies so they can
	// drain and exit.
	go func() {
		<-pctx.Done()
		p.cond.Broadcast()
	}()
	p.wg.Add(n)
	for _, w := range p.workers {
		go p.run(w)
	}
	return p
}

// SetKeepGoing selects the pool's failure discipline. Fail-fast (the
// default) cancels everything on the first task error — right for
// short runs where any failure voids the result. Keep-going lets the
// remaining tasks complete and Wait returns every error joined — right
// for long sweeps where the completed evaluations are cached and one
// bad point must not kill a ten-hour run. Call before submitting work.
func (p *Pool) SetKeepGoing(on bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.keepGoing = on
}

// Submit enqueues a task on the shared injection queue. It panics if
// called after Wait.
func (p *Pool) Submit(t Task) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		panic("runner: Submit after Wait")
	}
	p.pending++
	p.global = append(p.global, t)
	p.cond.Signal()
}

// spawn pushes a subtask onto w's deque.
func (p *Pool) spawn(w *worker, t Task) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pending++
	w.deque = append(w.deque, t)
	p.cond.Signal()
}

// Wait closes submission and blocks until every task has finished (or
// the pool was cancelled and drained). Fail-fast it returns the first
// task error; keep-going it returns every task error joined; either
// way the context error on cancellation.
func (p *Pool) Wait() error {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
	ctxErr := p.ctx.Err() // read before the release-cancel below
	p.cancel()            // release the context watcher
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		if p.keepGoing {
			return errors.Join(p.errs...)
		}
		return p.err
	}
	return ctxErr
}

// next blocks until a task is available for w and dequeues it. The
// second result is false when the pool is done (drained and closed, or
// cancelled).
func (p *Pool) next(w *worker) (Task, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.ctx.Err() != nil {
			// Cancelled: discard all queued work so Wait can return.
			for _, ww := range p.workers {
				p.pending -= len(ww.deque)
				ww.deque = nil
			}
			p.pending -= len(p.global)
			p.global = nil
			return Task{}, false
		}
		// 1. Local deque, newest first (depth-first descent).
		if n := len(w.deque); n > 0 {
			t := w.deque[n-1]
			w.deque = w.deque[:n-1]
			return t, true
		}
		// 2. Shared injection queue, oldest first.
		if len(p.global) > 0 {
			t := p.global[0]
			p.global = p.global[1:]
			return t, true
		}
		// 3. Steal the oldest task from a sibling, scanning round-robin
		// from our right neighbour so thieves spread across victims.
		for i := 1; i < len(p.workers); i++ {
			v := p.workers[(w.id+i)%len(p.workers)]
			if len(v.deque) > 0 {
				t := v.deque[0]
				v.deque = v.deque[1:]
				return t, true
			}
		}
		if p.closed && p.pending == 0 {
			return Task{}, false
		}
		p.cond.Wait()
	}
}

// run is one worker's loop.
func (p *Pool) run(w *worker) {
	defer p.wg.Done()
	for {
		t, ok := p.next(w)
		if !ok {
			return
		}
		if p.observer != nil {
			p.observer.TaskStart(w.id, t.ID)
		}
		err := p.runTask(w, t)
		if p.observer != nil {
			p.observer.TaskDone(w.id, t.ID, err)
		}
		p.mu.Lock()
		if err != nil {
			if p.err == nil {
				p.err = err
			}
			p.errs = append(p.errs, err)
		}
		p.pending--
		if p.pending == 0 {
			p.cond.Broadcast()
		}
		keepGoing := p.keepGoing
		p.mu.Unlock()
		if err != nil && !keepGoing {
			p.cancel()
		}
	}
}

// runTask executes t, converting a panic into an error carrying the
// captured stack so one bad task cannot take down the whole process —
// and the failure is still debuggable after the run finishes.
func (p *Pool) runTask(w *worker, t Task) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("runner: task %s panicked: %v\n%s", t.ID, r, debug.Stack())
		}
	}()
	return t.Run(&TaskCtx{Context: p.ctx, w: w})
}
