package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func postSpec(t *testing.T, url string, spec ExperimentSpec, client string) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/experiments", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Rmscale-Client", client)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, body
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, body
}

// TestHTTPEndToEnd drives the full client journey against the real
// executor: submit a sim experiment, stream its progress to
// completion, fetch the stored result.
func TestHTTPEndToEnd(t *testing.T) {
	d, err := New(Config{Dir: t.TempDir(), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	srv := httptest.NewServer(NewServer(d).Handler())
	defer srv.Close()

	spec := ExperimentSpec{Kind: KindSim, Model: "LOWEST", Seed: 1, Horizon: 250}
	resp, body := postSpec(t, srv.URL, spec, "e2e")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	if st.ID == "" || st.State.Terminal() {
		t.Fatalf("submit status = %+v, want a queued/running experiment", st)
	}

	// Stream until terminal: one JSON line per state change.
	streamResp, err := http.Get(srv.URL + "/v1/experiments/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	if ct := streamResp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type = %q", ct)
	}
	dec := json.NewDecoder(streamResp.Body)
	var last Status
	lines := 0
	for {
		if err := dec.Decode(&last); err != nil {
			t.Fatalf("stream decode after %d lines: %v", lines, err)
		}
		lines++
		if last.State.Terminal() {
			break
		}
	}
	if last.State != StateDone {
		t.Fatalf("experiment ended %s: %s", last.State, last.Error)
	}

	resp, body = get(t, srv.URL+"/v1/experiments/"+st.ID+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: HTTP %d: %s", resp.StatusCode, body)
	}
	var res Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
	if res.Spec != spec {
		t.Fatalf("result spec = %+v, want %+v (self-describing envelope)", res.Spec, spec)
	}
	if res.Summary == nil || res.Summary.Jobs == 0 {
		t.Fatalf("result summary = %+v, want a completed simulation", res.Summary)
	}

	if resp, _ := get(t, srv.URL+"/v1/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", resp.StatusCode)
	}
	resp, body = get(t, srv.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: HTTP %d", resp.StatusCode)
	}
	var stats Stats
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Executions != 1 || stats.Completed != 1 {
		t.Fatalf("stats = %+v, want one completed execution", stats)
	}
}

// TestHTTPDedupByteIdentical pins the cross-client dedup contract over
// the wire: two identical submissions yield one execution and
// byte-identical result payloads.
func TestHTTPDedupByteIdentical(t *testing.T) {
	d, err := New(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	srv := httptest.NewServer(NewServer(d).Handler())
	defer srv.Close()

	spec := ExperimentSpec{Kind: KindSim, Model: "CENTRAL", Seed: 5, Horizon: 250}
	resp, body := postSpec(t, srv.URL, spec, "alice")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1: HTTP %d: %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, d, st.ID)
	if fin.State != StateDone {
		t.Fatalf("experiment ended %s: %s", fin.State, fin.Error)
	}

	// The second, identical submission answers 200 from the store.
	resp, body = postSpec(t, srv.URL, spec, "bob")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dedup submit: HTTP %d: %s", resp.StatusCode, body)
	}
	var st2 Status
	if err := json.Unmarshal(body, &st2); err != nil {
		t.Fatal(err)
	}
	if !st2.Dedup || st2.ID != st.ID {
		t.Fatalf("dedup submit status = %+v, want dedup of %s", st2, st.ID)
	}

	_, b1 := get(t, srv.URL+"/v1/experiments/"+st.ID+"/result")
	_, b2 := get(t, srv.URL+"/v1/experiments/"+st.ID+"/result")
	if !bytes.Equal(b1, b2) || len(b1) == 0 {
		t.Fatal("result fetches are not byte-identical")
	}
	s := d.Stats()
	if s.Executions != 1 || s.DedupHits() != 1 {
		t.Fatalf("stats = %+v, want executions=1 dedup=1", s)
	}
}

// TestHTTPAdmission429 pins the saturation surface: HTTP 429 with a
// Retry-After hint when the queue is full, and acceptance again once
// it drains.
func TestHTTPAdmission429(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	exec := func(ctx context.Context, spec ExperimentSpec, dir string) ([]byte, error) {
		started <- struct{}{}
		<-release
		return fakeExec(ctx, spec, dir)
	}
	d, err := New(Config{Shards: 1, QueueCap: 1, Exec: exec})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	srv := httptest.NewServer(NewServer(d).Handler())
	defer srv.Close()

	mk := func(seed int64) ExperimentSpec {
		return ExperimentSpec{Kind: KindSim, Model: "LOWEST", Seed: seed}
	}
	resp, body := postSpec(t, srv.URL, mk(1), "a")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1: HTTP %d: %s", resp.StatusCode, body)
	}
	<-started // shard busy; queue empty
	resp, body = postSpec(t, srv.URL, mk(2), "b")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 2: HTTP %d: %s", resp.StatusCode, body)
	}
	var queued Status
	if err := json.Unmarshal(body, &queued); err != nil {
		t.Fatal(err)
	}

	resp, body = postSpec(t, srv.URL, mk(3), "c")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit at capacity: HTTP %d: %s, want 429", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 response missing Retry-After")
	}
	var e errorBody
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("429 body = %q, want an error payload", body)
	}

	close(release)
	if fin := waitTerminal(t, d, queued.ID); fin.State != StateDone {
		t.Fatalf("queued experiment ended %s", fin.State)
	}
	// Capacity is available again: the refused spec now lands.
	resp, _ = postSpec(t, srv.URL, mk(3), "c")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit after drain: HTTP %d, want 202", resp.StatusCode)
	}
}

// TestHTTPResultStates pins the result endpoint's non-200 answers:
// 404 for unknown IDs, 409 with a status body while unfinished.
func TestHTTPResultStates(t *testing.T) {
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
	srv := httptest.NewServer(NewServer(d).Handler())
	defer srv.Close()

	if resp, _ := get(t, srv.URL+"/v1/experiments/nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown status: HTTP %d, want 404", resp.StatusCode)
	}
	if resp, _ := get(t, srv.URL+"/v1/experiments/nope/result"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown result: HTTP %d, want 404", resp.StatusCode)
	}

	spec := ExperimentSpec{Kind: KindSim, Model: "LOWEST", Seed: 1}
	resp, body := postSpec(t, srv.URL, spec, "a")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	resp, body = get(t, srv.URL+"/v1/experiments/"+st.ID+"/result")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("unfinished result: HTTP %d, want 409", resp.StatusCode)
	}
	var pending Status
	if err := json.Unmarshal(body, &pending); err != nil || pending.State.Terminal() {
		t.Fatalf("409 body = %s, want the pending status", body)
	}
	close(release)
	waitTerminal(t, d, st.ID)
}

// postBody posts a raw submission body.
func postBody(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/experiments", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, b
}

// TestHTTPSubmitRefusesWhatItCannotHonour: an oversized body is
// refused with 413 naming the limit, a misspelt field or trailing
// bytes with 400 naming the problem — none of them is queued — and a
// valid spec still answers 202, then 200 on its dedup.
func TestHTTPSubmitRefusesWhatItCannotHonour(t *testing.T) {
	d, err := New(Config{Shards: 1, Exec: fakeExec})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	srv := httptest.NewServer(NewServer(d).Handler())
	defer srv.Close()

	huge := append([]byte(`{"kind":"sim","model":"LOWEST","seed":1,"pad":"`), bytes.Repeat([]byte("x"), 2<<20)...)
	huge = append(huge, `"}`...)
	for _, tc := range []struct {
		name string
		body []byte
		code int
		says string
	}{
		{"oversized", huge, http.StatusRequestEntityTooLarge, "1048576"},
		{"misspelt field", []byte(`{"kind":"sim","model":"LOWEST","seed":1,"horizion":500}`), http.StatusBadRequest, `unknown field \"horizion`},
		{"trailing object", []byte(`{"kind":"sim","model":"LOWEST","seed":1} {}`), http.StatusBadRequest, "after the spec"},
		{"trailing garbage", []byte(`{"kind":"sim","model":"LOWEST","seed":1}x`), http.StatusBadRequest, "decoding spec"},
	} {
		resp, body := postBody(t, srv.URL, tc.body)
		if resp.StatusCode != tc.code || !strings.Contains(string(body), tc.says) {
			t.Errorf("%s: HTTP %d %s, want %d naming %s", tc.name, resp.StatusCode, body, tc.code, tc.says)
		}
	}
	if s := d.Stats(); s.Submitted != 0 {
		t.Fatalf("refused bodies were accepted: submitted = %d", s.Submitted)
	}

	valid := []byte(`{"kind":"sim","model":"LOWEST","seed":1,"horizon":500}` + "\n")
	resp, body := postBody(t, srv.URL, valid)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("valid spec: HTTP %d %s, want 202", resp.StatusCode, body)
	}
	var st Status
	mustDecode(t, body, &st)
	if st.Spec.Horizon != 500 {
		t.Fatalf("accepted spec %+v lost its horizon", st.Spec)
	}
	waitTerminal(t, d, st.ID)
	if resp, body := postBody(t, srv.URL, valid); resp.StatusCode != http.StatusOK {
		t.Fatalf("dedup of a done spec: HTTP %d %s, want 200", resp.StatusCode, body)
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so allocation
// counts see only the handler's own work.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// healthHandler answers /v1/healthz. It is pointer-typed, so two
// handlers holding it compare equal.
type healthHandler struct{ d *Daemon }

func (h *healthHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.d.Health())
}

// TestLogRequestsFreeWithoutLog: a daemon without a log hands each
// request straight to the handler, so request logging allocates
// nothing on top of it.
func TestLogRequestsFreeWithoutLog(t *testing.T) {
	d, err := New(Config{Shards: 1, Exec: fakeExec})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	h := &healthHandler{d}
	logged := NewServer(d).logRequests(h)
	if logged != http.Handler(h) {
		t.Fatalf("logRequests without a log wrapped the handler in a %T", logged)
	}
	if raceEnabled {
		return // the detector's own allocations would blur the counts below
	}
	w := &discardWriter{h: http.Header{}}
	req := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
	bare := testing.AllocsPerRun(100, func() { h.ServeHTTP(w, req) })
	if got := testing.AllocsPerRun(100, func() { logged.ServeHTTP(w, req) }); got != bare {
		t.Fatalf("logRequests(h) allocates %.0f per request without a log, h alone %.0f", got, bare)
	}
}

// rewindBody is a request body the test rewinds between requests
// without allocating.
type rewindBody struct{ *bytes.Reader }

func (rewindBody) Close() error { return nil }

// TestSubmitDedupHitAllocs pins one dedup-hit POST /v1/experiments
// through the server's handler, without a log: the spec decode, the
// daemon's dedup path and the JSON answer into a fresh recorder. A
// spec that decodes cleanly takes no error-branch allocation.
func TestSubmitDedupHitAllocs(t *testing.T) {
	const budget = 25
	d, err := New(Config{Shards: 1, Exec: fakeExec})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	h := NewServer(d).Handler()
	spec := []byte(`{"kind":"sim","model":"LOWEST","seed":1}`)
	body := rewindBody{bytes.NewReader(spec)}
	req := httptest.NewRequest(http.MethodPost, "/v1/experiments", body)
	post := func() *httptest.ResponseRecorder {
		body.Reset(spec)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	var st Status
	if err := json.Unmarshal(post().Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st = waitTerminal(t, d, st.ID); st.State != StateDone {
		t.Fatalf("seeded experiment ended %s: %s", st.State, st.Error)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if rec := post(); rec.Code != http.StatusOK {
			t.Fatalf("dedup submit answered %d: %s", rec.Code, rec.Body)
		}
	})
	if raceEnabled {
		t.Skipf("the race detector adds allocations (%.0f measured); the budget of %d holds without it", allocs, budget)
	}
	if allocs > budget {
		t.Errorf("dedup-hit submit through the handler allocates %.0f times, budget %d", allocs, budget)
	}
}

// lockedBuffer is a log sink safe for the daemon's goroutines.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) lines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.Split(strings.TrimSpace(b.buf.String()), "\n")
}

// TestLogRequestsWritesOneLine: with a log, each request writes one
// "http" line carrying its method, path, status, bytes, duration and
// client.
func TestLogRequestsWritesOneLine(t *testing.T) {
	var log lockedBuffer
	d, err := New(Config{Shards: 1, Exec: fakeExec, Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	srv := httptest.NewServer(NewServer(d).Handler())
	defer srv.Close()
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Rmscale-Client", "probe")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	var got []map[string]any
	for _, line := range log.lines() {
		var ev map[string]any
		mustDecode(t, []byte(line), &ev)
		if ev["event"] == "http" {
			got = append(got, ev)
		}
	}
	if len(got) != 1 {
		t.Fatalf("one request logged %d http lines: %v", len(got), got)
	}
	ev := got[0]
	if ev["method"] != "GET" || ev["path"] != "/v1/healthz" || ev["status"] != float64(200) ||
		ev["bytes"] != float64(n) || ev["client"] != "probe" {
		t.Fatalf("http line = %v, want GET /v1/healthz 200 %d bytes from probe", ev, n)
	}
	if ms, ok := ev["dur_ms"].(float64); !ok || ms < 0 {
		t.Fatalf("http line dur_ms = %v", ev["dur_ms"])
	}
}
