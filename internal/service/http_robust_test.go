package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rmscale/internal/fsutil"
)

// isResultLog reports whether f is the result store's log.
func isResultLog(f fsutil.File) bool { return filepath.Base(f.Name()) == resultLog }

// flakyWriteFS fails the store's durable writes (result log appends
// and atomic rewrites) while letting journal appends and every other
// op through.
type flakyWriteFS struct {
	fsutil.RealFS
	err error
}

func (f flakyWriteFS) WriteFileAtomic(string, []byte, os.FileMode) error { return f.err }

func (f flakyWriteFS) AppendSync(file fsutil.File, b []byte) error {
	if isResultLog(file) {
		return f.err
	}
	return f.RealFS.AppendSync(file, b)
}

// appendFailFS fails journal appends while letting store writes
// through — durability lost mid-flight.
type appendFailFS struct {
	fsutil.RealFS
	err error
}

func (f appendFailFS) AppendSync(file fsutil.File, b []byte) error {
	if isResultLog(file) {
		return f.RealFS.AppendSync(file, b)
	}
	return f.err
}

// TestHTTPStreamClientDisconnectReleasesHandler pins the streaming
// leak fix: a client hanging up mid-stream must release its parked
// handler goroutine promptly, not strand it on the condition variable
// until the next unrelated state change.
func TestHTTPStreamClientDisconnectReleasesHandler(t *testing.T) {
	release := make(chan struct{})
	exec := func(ctx context.Context, spec ExperimentSpec, dir string) ([]byte, error) {
		<-release
		return fakeExec(ctx, spec, dir)
	}
	d, err := New(Config{Shards: 1, Exec: exec})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	defer close(release)
	srv := httptest.NewServer(NewServer(d).Handler())
	defer srv.Close()

	spec := ExperimentSpec{Kind: KindSim, Model: "LOWEST", Seed: 1}
	resp, body := postSpec(t, srv.URL, spec, "leakcheck")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, body)
	}
	var st Status
	mustDecode(t, body, &st)

	baseline := runtime.NumGoroutine()
	const streams = 8
	tr := &http.Transport{}
	cl := &http.Client{Transport: tr}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/experiments/"+st.ID+"/stream", nil)
			if err != nil {
				return
			}
			resp, err := cl.Do(req)
			if err != nil {
				return
			}
			// Drain until the disconnect: the first status line arrives,
			// then the handler parks awaiting the next state change.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
	}
	// Let every stream deliver its first line and park.
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() < baseline+streams {
		if time.Now().After(deadline) {
			t.Fatalf("streams never parked: baseline %d now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}

	cancel() // every client hangs up mid-stream
	wg.Wait()
	tr.CloseIdleConnections()
	deadline = time.Now().Add(3 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("stream handlers leaked after disconnect: baseline %d, still %d", baseline, n)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestHTTPBreakerSheds503 pins the breaker's client-visible shape:
// while open, submissions get 503 with a cooldown-sized Retry-After
// and /v1/healthz reports degraded.
func TestHTTPBreakerSheds503(t *testing.T) {
	exec := func(ctx context.Context, spec ExperimentSpec, dir string) ([]byte, error) {
		return nil, errors.New("backend down")
	}
	d, err := New(Config{Shards: 1, Exec: exec, BreakerThreshold: 1, BreakerCooldown: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	srv := httptest.NewServer(NewServer(d).Handler())
	defer srv.Close()

	resp, body := postSpec(t, srv.URL, ExperimentSpec{Kind: KindSim, Model: "LOWEST", Seed: 1}, "c")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, body)
	}
	var st Status
	mustDecode(t, body, &st)
	waitTerminal(t, d, st.ID) // the failure trips the threshold-1 breaker

	resp, body = postSpec(t, srv.URL, ExperimentSpec{Kind: KindSim, Model: "LOWEST", Seed: 2}, "c")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed submit: HTTP %d: %s, want 503", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "circuit breaker") {
		t.Fatalf("shed body does not name the breaker: %s", body)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 60 {
		t.Fatalf("Retry-After = %q, want 1..60 seconds", resp.Header.Get("Retry-After"))
	}

	resp, body = get(t, srv.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", resp.StatusCode)
	}
	var h Health
	mustDecode(t, body, &h)
	if h.Status != "degraded" || !h.BreakerOpen || h.RetryAfterSec < 1 {
		t.Fatalf("healthz = %+v, want degraded with breaker open", h)
	}
}

// TestHTTPHealthzDegradedStore: a store fallen back to memory-only
// keeps serving results and says so on /v1/healthz and /v1/stats.
func TestHTTPHealthzDegradedStore(t *testing.T) {
	d, err := New(Config{
		Dir: t.TempDir(), Shards: 1, Exec: fakeExec,
		FS: flakyWriteFS{err: errors.New("io error: device lost")},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	srv := httptest.NewServer(NewServer(d).Handler())
	defer srv.Close()

	resp, body := postSpec(t, srv.URL, ExperimentSpec{Kind: KindSim, Model: "LOWEST", Seed: 1}, "c")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, body)
	}
	var st Status
	mustDecode(t, body, &st)
	if fin := waitTerminal(t, d, st.ID); fin.State != StateDone {
		t.Fatalf("execution under failing disk ended %s (%s), want done from memory", fin.State, fin.Error)
	}

	// The result still serves (memory tier)...
	resp, body = get(t, srv.URL+"/v1/experiments/"+st.ID+"/result")
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("result under degraded store: HTTP %d (%d bytes)", resp.StatusCode, len(body))
	}
	// ...and the degradation is visible.
	resp, body = get(t, srv.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", resp.StatusCode)
	}
	var h Health
	mustDecode(t, body, &h)
	if h.Status != "degraded" || h.StoreDegraded == "" {
		t.Fatalf("healthz = %+v, want store degradation surfaced", h)
	}
	var stats Stats
	_, body = get(t, srv.URL+"/v1/stats")
	mustDecode(t, body, &stats)
	if stats.StoreDegraded == "" || !stats.Degraded {
		t.Fatalf("stats = %+v, want store degradation surfaced", stats)
	}
}

// TestHTTPJournalDegraded: a journal whose device dies mid-flight
// stops journaling but keeps accepting work, and says so.
func TestHTTPJournalDegraded(t *testing.T) {
	// Opening the journal appends nothing, so the failure first bites
	// on the first submission.
	d2, err := New(Config{Dir: t.TempDir(), Shards: 1, Exec: fakeExec, FS: appendFailFS{err: errors.New("journal device gone")}})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()

	st, err := d2.Submit(ExperimentSpec{Kind: KindSim, Model: "LOWEST", Seed: 1}, "c")
	if err != nil {
		t.Fatalf("submission refused under journal failure: %v", err)
	}
	if fin := waitTerminal(t, d2, st.ID); fin.State != StateDone {
		t.Fatalf("ended %s (%s), want done", fin.State, fin.Error)
	}
	h := d2.Health()
	if h.Status != "degraded" || h.JournalDegraded == "" {
		t.Fatalf("health = %+v, want journal degradation surfaced", h)
	}
}

// mustDecode unmarshals JSON or fails the test.
func mustDecode(t *testing.T, b []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("decoding %s: %v", b, err)
	}
}
