package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rmscale/internal/service"
)

// script serves one scripted answer per request, in order, and records
// each request's client header.
type script struct {
	mu      sync.Mutex
	answers []http.HandlerFunc
	headers []string
}

func (s *script) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := len(s.headers)
	s.headers = append(s.headers, r.Header.Get("X-Rmscale-Client"))
	s.mu.Unlock()
	if n >= len(s.answers) {
		http.Error(w, "unscripted request", http.StatusTeapot)
		return
	}
	s.answers[n](w, r)
}

func (s *script) requests() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.headers...)
}

// serve starts a scripted daemon and a client for it.
func serve(t *testing.T, answers ...http.HandlerFunc) (*script, *Client) {
	t.Helper()
	s := &script{answers: answers}
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return s, &Client{Base: srv.URL + "/", ID: "tester", RetryFor: time.Minute}
}

// answer replies with code, an optional Retry-After, and body.
func answer(code int, retryAfter, body string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if retryAfter != "" {
			w.Header().Set("Retry-After", retryAfter)
		}
		w.WriteHeader(code)
		fmt.Fprint(w, body)
	}
}

// lines streams the given ndjson lines and ends the response.
func lines(ls ...string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		for _, l := range ls {
			fmt.Fprintln(w, l)
		}
	}
}

var spec = service.ExperimentSpec{Kind: service.KindSim, Model: "LOWEST", Seed: 7}

func TestSubmitRetriesRefusals(t *testing.T) {
	for _, code := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable} {
		t.Run(fmt.Sprint(code), func(t *testing.T) {
			t.Parallel()
			const accepted = `{"id":"x","state":"queued"}` + "\n"
			s, c := serve(t, answer(code, "", `{"error":"busy"}`), answer(http.StatusAccepted, "", accepted))
			var refused []int
			c.Refused = func(code int, wait time.Duration) {
				if wait <= 0 {
					t.Errorf("refusal wait %v", wait)
				}
				refused = append(refused, code)
			}
			body, err := c.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			if string(body) != accepted {
				t.Fatalf("Submit returned %q, want the daemon's answer %q", body, accepted)
			}
			if len(refused) != 1 || refused[0] != code {
				t.Fatalf("Refused calls = %v, want one with %d", refused, code)
			}
			if got := s.requests(); len(got) != 2 || got[0] != "tester" || got[1] != "tester" {
				t.Fatalf("client headers per request = %q, want tester twice", got)
			}
		})
	}
}

func TestSubmitWithoutBudgetTriesOnce(t *testing.T) {
	s, c := serve(t, answer(http.StatusTooManyRequests, "1", `{"error":"saturated"}`))
	c.RetryFor = 0
	c.Refused = func(int, time.Duration) { t.Error("Refused called without a retry budget") }
	_, err := c.Submit(spec)
	var herr *HTTPError
	if !errors.As(err, &herr) || herr.Code != http.StatusTooManyRequests || !herr.Refusal() {
		t.Fatalf("Submit error = %v, want an *HTTPError refusal with 429", err)
	}
	if n := len(s.requests()); n != 1 {
		t.Fatalf("%d requests, want 1", n)
	}
}

func TestWatchReopensClosedStream(t *testing.T) {
	s, c := serve(t,
		lines(`{"id":"x","state":"running"}`),
		lines(`{"id":"x","state":"running"}`, `{"id":"x","state":"done"}`))
	var seen []service.State
	fin, err := c.Watch("x", func(st service.Status) bool {
		seen = append(seen, st.State)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != service.StateDone || len(seen) != 3 || len(s.requests()) != 2 {
		t.Fatalf("final %s after lines %v over %d streams, want done after 3 lines over 2", fin.State, seen, len(s.requests()))
	}
}

func TestWatchHangUpReachesServer(t *testing.T) {
	hungUp := make(chan struct{})
	_, c := serve(t, func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"id":"x","state":"running"}`)
		w.(http.Flusher).Flush()
		<-r.Context().Done()
		close(hungUp)
	})
	st, err := c.Watch("x", func(service.Status) bool { return false })
	if err != nil || st.State != service.StateRunning {
		t.Fatalf("Watch = %+v, %v; want the running line", st, err)
	}
	select {
	case <-hungUp:
	case <-time.After(5 * time.Second):
		t.Fatal("the server's handler never saw the client hang up")
	}
}

func TestWatchDecodesEachLineFresh(t *testing.T) {
	_, c := serve(t, lines(
		`{"id":"x","state":"running","error":"attempt 1 failed","dedup":true,"progress":{"jobs_total":4,"jobs_done":1}}`,
		`{"id":"x","state":"done"}`))
	var sawProgress bool
	fin, err := c.Watch("x", func(st service.Status) bool {
		sawProgress = sawProgress || st.Progress != nil
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawProgress {
		t.Fatal("the running line's progress was lost")
	}
	if fin.Progress != nil || fin.Error != "" || fin.Dedup {
		t.Fatalf("final status %+v kept fields from the earlier line", fin)
	}
}

func TestResultWaitsForRerun(t *testing.T) {
	const payload = `{"ok":true}`
	s, c := serve(t,
		answer(http.StatusConflict, "", `{"id":"x","state":"queued"}`),
		answer(http.StatusOK, "", payload))
	b, err := c.Result("x")
	if err != nil || string(b) != payload {
		t.Fatalf("Result = %q, %v; want %q", b, err, payload)
	}
	if n := len(s.requests()); n != 2 {
		t.Fatalf("%d requests, want 2", n)
	}
}

func TestResultOfFailedExperimentFailsAtOnce(t *testing.T) {
	s, c := serve(t, answer(http.StatusConflict, "", `{"id":"x","state":"failed","error":"boom"}`))
	_, err := c.Result("x")
	var herr *HTTPError
	if !errors.As(err, &herr) || herr.Code != http.StatusConflict {
		t.Fatalf("Result error = %v, want an *HTTPError with 409", err)
	}
	if n := len(s.requests()); n != 1 {
		t.Fatalf("%d requests, want 1", n)
	}
}

// TestWaitPolicy pins the one retry policy, oversized Retry-After hints
// included: a hint too large for a Duration must clamp to the cap, not
// wrap into a huge or negative sleep.
func TestWaitPolicy(t *testing.T) {
	for _, tc := range []struct {
		hint string
		base time.Duration // for attempt 1; the wait lies in [base, 1.25·base]
	}{
		{"", 250 * time.Millisecond},
		{"abc", 250 * time.Millisecond},
		{"0", 250 * time.Millisecond},
		{"-5", 250 * time.Millisecond},
		{"1", time.Second},
		{"30", maxWait},
		{"9223372037", maxWait},
		{"18446744073", maxWait},
		{"99999999999999999999", maxWait},
	} {
		for _, attempt := range []int{1, 2, 40} {
			a := (&Client{ID: "a"}).wait("spec{kind=sim seed=1}", attempt, tc.hint)
			b := (&Client{ID: "b"}).wait("spec{kind=sim seed=1}", attempt, tc.hint)
			if a <= 0 || a > maxWait*5/4 || b <= 0 || b > maxWait*5/4 {
				t.Errorf("hint %q attempt %d: waits %v, %v outside (0, %v]", tc.hint, attempt, a, b, maxWait*5/4)
			}
			if again := (&Client{ID: "a"}).wait("spec{kind=sim seed=1}", attempt, tc.hint); again != a {
				t.Errorf("hint %q attempt %d: wait %v then %v for the same key", tc.hint, attempt, a, again)
			}
			if a == b {
				t.Errorf("hint %q attempt %d: clients a and b both wait %v", tc.hint, attempt, a)
			}
			if attempt == 1 && (a < tc.base || a > tc.base*5/4) {
				t.Errorf("hint %q: first wait %v, want within [%v, %v]", tc.hint, a, tc.base, tc.base*5/4)
			}
		}
	}
}

// TestRoundTrip drives a real daemon over HTTP: the fetched payload is
// the daemon's stored result, byte for byte.
func TestRoundTrip(t *testing.T) {
	d, err := service.New(service.Config{Exec: func(_ context.Context, s service.ExperimentSpec, _ string) ([]byte, error) {
		return []byte(fmt.Sprintf("{\"ran\":%q}\n", s.String())), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	srv := httptest.NewServer(service.NewServer(d).Handler())
	defer srv.Close()
	c := &Client{Base: srv.URL, ID: "roundtrip", RetryFor: time.Minute}

	body, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	id, err := spec.ID()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), id) {
		t.Fatalf("submit answer %s does not name %s", body, id)
	}
	fin, err := c.Watch(id, nil)
	if err != nil || fin.State != service.StateDone {
		t.Fatalf("Watch = %+v, %v; want done", fin, err)
	}
	got, err := c.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	want, ok := d.Result(id)
	if !ok || string(got) != string(want) {
		t.Fatalf("Result = %q, daemon stores %q", got, want)
	}
	if st, err := c.Status(id); err != nil || st.State != service.StateDone {
		t.Fatalf("Status = %+v, %v; want done", st, err)
	}
	if s, err := c.Stats(); err != nil || s.Executions != 1 {
		t.Fatalf("Stats = %+v, %v; want one execution", s, err)
	}
	if h, err := c.Health(); err != nil || h.Status != "ok" {
		t.Fatalf("Health = %+v, %v; want ok", h, err)
	}
}
