// Package client is the one HTTP client for rmscaled. The
// `rmscaled submit|status|fetch` commands, the load harness
// (internal/service/loadgen) and the service chaos harness
// (internal/service/chaos) all drive the daemon through it, so the
// harnesses that qualify the service exercise the client users run.
//
// There is one typed call per route and one retry policy. A call
// retries only the answers that mean "come back later", for at most
// Client.RetryFor:
//
//   - a 429 or 503 refusal of a submission;
//   - a status stream the daemon closed before a terminal state,
//     which is reopened;
//   - a 409 from /result whose body is a queued or running status
//     (the daemon is re-running a lost result).
//
// Each wait is the server's Retry-After when sent, else 250 ms times
// the attempt number, capped at 5 s, plus up to a quarter more of
// deterministic jitter hashed from the client ID, the spec or
// experiment ID, and the attempt, so a herd of clients spreads out
// without a global RNG.
package client

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"rmscale/internal/service"
)

// DefaultRetryFor is the retry budget of the load and chaos harnesses
// and the default of `rmscaled submit -retry-for`.
const DefaultRetryFor = 2 * time.Minute

// Backoff shape: the linear ramp without a Retry-After hint, and the
// cap on one wait before jitter.
const (
	waitStep = 250 * time.Millisecond
	maxWait  = 5 * time.Second
)

// Client talks to one rmscaled daemon over the default HTTP transport.
// A Client holds no connection state of its own; concurrent calls are
// safe when Refused is.
type Client struct {
	// Base is the daemon's base URL, e.g. "http://127.0.0.1:8080".
	Base string
	// ID is sent as X-Rmscale-Client; the daemon uses it for fairness
	// and its request log. Empty sends no header.
	ID string
	// RetryFor bounds how long one call keeps retrying an answer that
	// means "come back later": its waits add up to at most RetryFor.
	// 0 means one attempt.
	RetryFor time.Duration
	// Refused, when non-nil, is called before each wait that follows a
	// refused submission, with the refusal's HTTP code.
	Refused func(code int, wait time.Duration)
}

// HTTPError is an answer the call does not retry, or the last one
// before its retry budget ran out.
type HTTPError struct {
	Op   string // the call and its subject, e.g. "submit" or "fetch <id>"
	Code int
	Body string
}

func (e *HTTPError) Error() string {
	return fmt.Sprintf("%s: HTTP %d: %s", e.Op, e.Code, e.Body)
}

// Refusal reports whether the daemon refused a submission for now (a
// saturated queue, a drain or an open circuit breaker).
func (e *HTTPError) Refusal() bool {
	return e.Code == http.StatusTooManyRequests || e.Code == http.StatusServiceUnavailable
}

// Submit posts spec and returns the daemon's answer, a JSON Status,
// undecoded: the experiment ID is spec.ID(), and decoding every answer
// would tax the dedup fast path the load harness measures. A 429 or
// 503 refusal is retried within RetryFor.
func (c *Client) Submit(spec service.ExperimentSpec) ([]byte, error) {
	payload, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	var r retrier
	for {
		resp, err := c.do(http.MethodPost, "/v1/experiments", payload)
		if err != nil {
			return nil, err
		}
		body, err := readAll(resp)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
			return body, nil
		}
		herr := httpError("submit", resp.StatusCode, body)
		if !herr.Refusal() {
			return nil, herr
		}
		if err := r.pause(c, spec.String(), resp.Header.Get("Retry-After"), herr); err != nil {
			return nil, err
		}
	}
}

// Status returns the experiment's current snapshot. It does not retry.
func (c *Client) Status(id string) (service.Status, error) {
	var st service.Status
	err := c.getJSON("status "+id, "/v1/experiments/"+id, &st)
	return st, err
}

// Watch follows the experiment's status stream until a terminal state
// and returns that status. Every line decodes into a fresh Status,
// which each, when non-nil, receives; when each returns false, Watch
// hangs up at once and returns that status. A stream the daemon closes
// before a terminal state is reopened within RetryFor.
func (c *Client) Watch(id string, each func(service.Status) bool) (service.Status, error) {
	var last service.Status
	var r retrier
	for {
		resp, err := c.do(http.MethodGet, "/v1/experiments/"+id+"/stream", nil)
		if err != nil {
			return last, err
		}
		if resp.StatusCode != http.StatusOK {
			body, _ := readAll(resp)
			return last, httpError("stream "+id, resp.StatusCode, body)
		}
		dec := json.NewDecoder(resp.Body)
		for {
			var st service.Status
			if dec.Decode(&st) != nil {
				break
			}
			last = st
			if each != nil && !each(st) || st.State.Terminal() {
				// Closing an unread body drops the connection, which is
				// what tells the daemon's handler the client hung up.
				resp.Body.Close()
				return st, nil
			}
		}
		resp.Body.Close()
		closed := fmt.Errorf("stream %s: closed while %s", id, last.State)
		if err := r.pause(c, id, "", closed); err != nil {
			return last, err
		}
	}
}

// Result fetches the experiment's stored result payload. A 409 whose
// body is a queued or running status means the daemon is re-running a
// lost result, and is retried within RetryFor; any other answer but
// 200, a failed experiment's 409 included, is an error at once.
func (c *Client) Result(id string) ([]byte, error) {
	var r retrier
	for {
		resp, err := c.do(http.MethodGet, "/v1/experiments/"+id+"/result", nil)
		if err != nil {
			return nil, err
		}
		body, err := readAll(resp)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode == http.StatusOK {
			return body, nil
		}
		herr := httpError("fetch "+id, resp.StatusCode, body)
		if resp.StatusCode != http.StatusConflict || !rerunning(body) {
			return nil, herr
		}
		if err := r.pause(c, id, resp.Header.Get("Retry-After"), herr); err != nil {
			return nil, err
		}
	}
}

// rerunning reports whether a 409 body is the status of an experiment
// still queued or running.
func rerunning(body []byte) bool {
	var st service.Status
	if json.Unmarshal(body, &st) != nil {
		return false
	}
	return st.State == service.StateQueued || st.State == service.StateRunning
}

// Stats returns the daemon's accounting.
func (c *Client) Stats() (service.Stats, error) {
	var s service.Stats
	err := c.getJSON("stats", "/v1/stats", &s)
	return s, err
}

// Health returns the daemon's liveness and degradation report.
func (c *Client) Health() (service.Health, error) {
	var h service.Health
	err := c.getJSON("healthz", "/v1/healthz", &h)
	return h, err
}

// getJSON GETs path and decodes a 200 answer into v.
func (c *Client) getJSON(op, path string, v any) error {
	resp, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	body, err := readAll(resp)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return httpError(op, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("%s: decoding answer: %w", op, err)
	}
	return nil
}

// do sends one request with the client's identity.
func (c *Client) do(method, path string, payload []byte) (*http.Response, error) {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequest(method, strings.TrimRight(c.Base, "/")+path, body)
	if err != nil {
		return nil, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.ID != "" {
		req.Header.Set("X-Rmscale-Client", c.ID)
	}
	return http.DefaultClient.Do(req)
}

// readAll reads and closes the response body.
func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

func httpError(op string, code int, body []byte) *HTTPError {
	return &HTTPError{Op: op, Code: code, Body: strings.TrimSpace(string(body))}
}

// retrier is one call's retry state.
type retrier struct {
	attempt int
	waited  time.Duration
}

// pause waits out one "come back later" answer, or returns last
// (wrapped, when there was a budget) once the waits would add up to
// more than RetryFor. key keys the jitter. A refused submission is
// reported to c.Refused before the wait.
func (r *retrier) pause(c *Client, key, retryAfter string, last error) error {
	if c.RetryFor <= 0 {
		return last
	}
	r.attempt++
	d := c.wait(key, r.attempt, retryAfter)
	if r.waited += d; r.waited > c.RetryFor {
		return fmt.Errorf("gave up after %v: %w", c.RetryFor, last)
	}
	if herr, ok := last.(*HTTPError); ok && herr.Refusal() && c.Refused != nil {
		c.Refused(herr.Code, d)
	}
	//lint:allow detertaint client backoff is real-time flow control between processes, outside any simulation
	time.Sleep(d)
	return nil
}

// wait sizes one backoff: the Retry-After seconds when sent (an
// oversized hint is compared with the cap before any conversion, so it
// cannot overflow), else the linear ramp; capped at maxWait; plus up
// to a quarter more of jitter hashed from (ID, key, attempt).
func (c *Client) wait(key string, attempt int, retryAfter string) time.Duration {
	d := time.Duration(attempt) * waitStep
	// ParseInt saturates an out-of-range hint at MaxInt64 and reports
	// ErrRange; either way the hint is larger than the cap.
	sec, err := strconv.ParseInt(retryAfter, 10, 64)
	if (err == nil || errors.Is(err, strconv.ErrRange)) && sec > 0 {
		d = maxWait
		if sec < int64(maxWait/time.Second) {
			d = time.Duration(sec) * time.Second
		}
	}
	if d > maxWait {
		d = maxWait
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s/%d", c.ID, key, attempt)
	return d + time.Duration(h.Sum64()%uint64(d/4+1))
}
