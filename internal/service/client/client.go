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
//
// A call runs each HTTP exchange on its caller's goroutine: it takes
// an idle keep-alive connection to the daemon's host from one small
// process-wide set, or dials one, writes the request and reads the
// answer itself. The connection goes back to the set only when the
// answer's body was read to its end and the answer did not say
// "Connection: close"; the set keeps at most 8 connections, and the
// longest idle goes first. Hanging up on a status stream closes its
// connection, which is how the daemon's handler learns that the client
// left. A request that fails on a reused idle connection before any
// answer arrives is sent once more on a fresh dial: the daemon may
// have closed the connection while it sat idle, and every rmscaled
// route is idempotent (submissions are content-addressed), so the
// resend is safe. The client speaks plain http://, which is all
// `rmscaled serve` listens on, and reads no proxy settings from the
// environment.
package client

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	//lint:allow nokernelgoroutines the idle-connection set is shared by every concurrent call in the process; its mutex guards a slice of connections, no simulation state, and is never held across a dial, a close or IO
	"sync"
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

// Client talks to one rmscaled daemon. Its calls share the package's
// idle connections; concurrent calls are safe when Refused is.
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
			if each != nil && !each(st) {
				// Closing an unread body drops the connection, which is
				// what tells the daemon's handler the client hung up.
				resp.Body.Close()
				return st, nil
			}
			if st.State.Terminal() {
				// The daemon ends the stream after a terminal status;
				// reading to that end keeps the connection.
				io.Copy(io.Discard, resp.Body)
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

// do sends one request with the client's identity. The caller reads
// the answer's body and closes it.
func (c *Client) do(method, path string, payload []byte) (*http.Response, error) {
	u, err := url.Parse(strings.TrimRight(c.Base, "/") + path)
	if err != nil {
		return nil, err
	}
	if u.Scheme != "http" {
		return nil, fmt.Errorf("%s: the rmscaled client speaks plain http only", c.Base)
	}
	req := &http.Request{Method: method, URL: u, Host: u.Host, Header: http.Header{}, ContentLength: int64(len(payload))}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.ID != "" {
		req.Header.Set("X-Rmscale-Client", c.ID)
	}
	resp, err := exchange(req, payload)
	if err != nil {
		// The error reads as net/http's client would report it.
		return nil, &url.Error{Op: method[:1] + strings.ToLower(method[1:]), URL: u.String(), Err: err}
	}
	return resp, nil
}

// maxIdle bounds the idle set, and so the idle connections to any one
// host: the largest client count a harness runs at once (8 in `make
// loadtest`).
const maxIdle = 8

// dialer bounds a dial as net/http's default transport does.
var dialer = net.Dialer{Timeout: 30 * time.Second}

// conn is one keep-alive connection to a daemon.
type conn struct {
	addr string // host:port, the idle set's key
	nc   net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

// idleSet is the process-wide set of idle connections, oldest first.
type idleSet struct {
	mu    sync.Mutex
	conns []*conn
}

var idle idleSet

// take removes and returns the most recently parked connection to
// addr, or nil.
func (s *idleSet) take(addr string) *conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.conns) - 1; i >= 0; i-- {
		if cn := s.conns[i]; cn.addr == addr {
			s.conns = append(s.conns[:i], s.conns[i+1:]...)
			return cn
		}
	}
	return nil
}

// put parks cn and returns the connection the bound leaves out, the
// longest idle, for the caller to close; nil while the set has room.
func (s *idleSet) put(cn *conn) *conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.conns = append(s.conns, cn)
	if len(s.conns) <= maxIdle {
		return nil
	}
	oldest := s.conns[0]
	s.conns = append(s.conns[:0], s.conns[1:]...)
	return oldest
}

// exchange sends req over an idle connection to its host, or a fresh
// one, and reads the answer's head. A failure on an idle connection
// sends req once more over a fresh dial.
func exchange(req *http.Request, payload []byte) (*http.Response, error) {
	addr := req.URL.Host
	if req.URL.Port() == "" {
		addr = net.JoinHostPort(req.URL.Hostname(), "80")
	}
	if cn := idle.take(addr); cn != nil {
		if resp, err := cn.roundTrip(req, payload); err == nil {
			return resp, nil
		}
		// The daemon may have closed the connection while it sat idle.
		cn.nc.Close()
	}
	nc, err := dialer.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	resp, err := (&conn{addr: addr, nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}).roundTrip(req, payload)
	if err != nil {
		nc.Close()
		return nil, err
	}
	return resp, nil
}

// roundTrip writes req and reads the answer's head. The answer's body
// owns the connection from then on.
func (cn *conn) roundTrip(req *http.Request, payload []byte) (*http.Response, error) {
	if payload != nil {
		req.Body = io.NopCloser(bytes.NewReader(payload))
	}
	if err := req.Write(cn.bw); err != nil {
		return nil, err
	}
	if err := cn.bw.Flush(); err != nil {
		return nil, err
	}
	resp, err := http.ReadResponse(cn.br, req)
	if err != nil {
		return nil, err
	}
	resp.Body = &body{rc: resp.Body, cn: cn, keep: !resp.Close}
	return resp, nil
}

// body is an answer's body. Closing it parks the connection for reuse
// when the body was read to EOF and the answer allows keep-alive, and
// otherwise closes the connection.
type body struct {
	rc   io.ReadCloser
	cn   *conn
	keep bool
	eof  bool
}

func (b *body) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	if err == io.EOF {
		b.eof = true
	}
	return n, err
}

// Close never closes rc: net/http's body would read the rest of the
// answer first, and a status stream has no end until the client hangs
// up.
func (b *body) Close() error {
	cn := b.cn
	if cn == nil {
		return nil
	}
	b.cn = nil
	if b.eof && b.keep {
		if cn = idle.put(cn); cn == nil {
			return nil
		}
	}
	return cn.nc.Close()
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
