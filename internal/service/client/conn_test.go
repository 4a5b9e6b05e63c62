package client

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rmscale/internal/service"
)

// counted is a started test server that counts the connections its
// clients open and close.
type counted struct {
	*httptest.Server
	opened, closed atomic.Int64
}

func countConns(t *testing.T, h http.Handler) *counted {
	t.Helper()
	s := &counted{Server: httptest.NewUnstartedServer(h)}
	s.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		switch st {
		case http.StateNew:
			s.opened.Add(1)
		case http.StateClosed:
			s.closed.Add(1)
		}
	}
	s.Start()
	t.Cleanup(s.Close)
	return s
}

// waitClosed waits until the server has seen n connections close.
func (s *counted) waitClosed(t *testing.T, n int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); s.closed.Load() < n; {
		if time.Now().After(deadline) {
			t.Fatalf("server saw %d connections close, want %d", s.closed.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// idleTo counts the idle connections parked for the server, and in all.
func idleTo(s *counted) (host, total int) {
	addr := strings.TrimPrefix(s.URL, "http://")
	idle.mu.Lock()
	defer idle.mu.Unlock()
	for _, cn := range idle.conns {
		if cn.addr == addr {
			host++
		}
	}
	return host, len(idle.conns)
}

var health = answer(http.StatusOK, "", `{"status":"ok"}`)

// TestCallsShareOneConnection: every call of one client, a status
// stream followed to its terminal state included, reaches the daemon
// over one keep-alive connection.
func TestCallsShareOneConnection(t *testing.T) {
	d, err := service.New(service.Config{Exec: func(_ context.Context, s service.ExperimentSpec, _ string) ([]byte, error) {
		return []byte(fmt.Sprintf("{\"ran\":%q}\n", s.String())), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	h := service.NewServer(d).Handler()
	srv := countConns(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if strings.HasSuffix(r.URL.Path, "/stream") {
			// The stream's end reaches the client well after its
			// terminal line, as it can over a real network.
			time.Sleep(20 * time.Millisecond)
		}
	}))
	c := &Client{Base: srv.URL, ID: "one-conn", RetryFor: time.Minute}
	id, err := spec.ID()
	if err != nil {
		t.Fatal(err)
	}
	calls := []struct {
		name string
		call func() error
	}{
		{"Submit", func() error { _, err := c.Submit(spec); return err }},
		{"Status", func() error { _, err := c.Status(id); return err }},
		{"Watch", func() error {
			fin, err := c.Watch(id, nil)
			if err == nil && fin.State != service.StateDone {
				err = fmt.Errorf("ended %s", fin.State)
			}
			return err
		}},
		{"Result", func() error { _, err := c.Result(id); return err }},
		{"Stats", func() error { _, err := c.Stats(); return err }},
		{"Health", func() error { _, err := c.Health(); return err }},
	}
	for _, k := range calls {
		if err := k.call(); err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		if n := srv.opened.Load(); n != 1 {
			t.Fatalf("after %s the daemon saw %d connections, want 1", k.name, n)
		}
	}
	if host, _ := idleTo(srv); host != 1 {
		t.Fatalf("%d idle connections to the daemon, want 1", host)
	}
}

// TestResendAfterIdleConnectionDropped: a connection the daemon closed
// while it sat idle costs the next call nothing but a fresh dial.
func TestResendAfterIdleConnectionDropped(t *testing.T) {
	var served atomic.Int64
	srv := countConns(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		health(w, r)
	}))
	c := &Client{Base: srv.URL}
	if _, err := c.Health(); err != nil {
		t.Fatal(err)
	}
	srv.CloseClientConnections()
	if h, err := c.Health(); err != nil || h.Status != "ok" {
		t.Fatalf("Health after the daemon dropped the idle connection = %+v, %v", h, err)
	}
	if o, n := srv.opened.Load(), served.Load(); o != 2 || n != 2 {
		t.Fatalf("%d connections and %d requests served, want 2 of each", o, n)
	}
}

// TestResendOnlyOnReusedConnection: a request that fails on a reused
// connection is sent once more on a fresh dial, and one that fails on
// a fresh dial is not sent again.
func TestResendOnlyOnReusedConnection(t *testing.T) {
	var served atomic.Int64
	srv := countConns(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 1 {
			health(w, r)
			return
		}
		nc, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			nc.Close() // hang up without an answer
		}
	}))
	c := &Client{Base: srv.URL}
	if _, err := c.Health(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []int64{3, 4} {
		if _, err := c.Health(); err == nil {
			t.Fatal("Health succeeded against a daemon that hangs up")
		}
		if n := served.Load(); n != want {
			t.Fatalf("%d requests served, want %d", n, want)
		}
	}
}

// TestConnectionCloseNotPooled: an answer that says "Connection: close"
// leaves nothing in the idle set, and the next call dials again.
func TestConnectionCloseNotPooled(t *testing.T) {
	srv := countConns(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Connection", "close")
		health(w, r)
	}))
	c := &Client{Base: srv.URL}
	for i := int64(1); i <= 2; i++ {
		if _, err := c.Health(); err != nil {
			t.Fatal(err)
		}
		if host, _ := idleTo(srv); host != 0 {
			t.Fatalf("call %d parked a connection the daemon closes", i)
		}
		if n := srv.opened.Load(); n != i {
			t.Fatalf("after call %d the daemon saw %d connections, want %d", i, n, i)
		}
	}
}

// TestUnreadBodyNotPooled: a body closed before its end, a status
// stream the client hangs up on included, closes its connection.
func TestUnreadBodyNotPooled(t *testing.T) {
	srv := countConns(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/stream") {
			fmt.Fprintln(w, `{"id":"x","state":"running"}`)
			w.(http.Flusher).Flush()
			<-r.Context().Done()
			return
		}
		health(w, r)
	}))
	c := &Client{Base: srv.URL}
	resp, err := c.do(http.MethodGet, "/v1/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, err := c.Watch("x", func(service.Status) bool { return false }); err != nil {
		t.Fatal(err)
	}
	if host, _ := idleTo(srv); host != 0 {
		t.Fatalf("%d connections parked with unread bodies", host)
	}
	srv.waitClosed(t, 2)
	if _, err := c.Health(); err != nil {
		t.Fatal(err)
	}
	if n := srv.opened.Load(); n != 3 {
		t.Fatalf("the daemon saw %d connections, want 3", n)
	}
}

// parallel makes n concurrent Health calls, each held by the server
// until all n have arrived, so that each runs on its own connection.
func parallel(t *testing.T, n int) *counted {
	t.Helper()
	arrived, release := make(chan struct{}), make(chan struct{})
	srv := countConns(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrived <- struct{}{}
		<-release
		health(w, r)
	}))
	c := &Client{Base: srv.URL}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = c.Health()
		}()
	}
	for range n {
		<-arrived
	}
	close(release)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if o := srv.opened.Load(); o != int64(n) {
		t.Fatalf("%d concurrent calls opened %d connections", n, o)
	}
	return srv
}

// TestIdleBound: the idle set keeps at most maxIdle connections,
// closing the longest idle first, whatever their hosts.
func TestIdleBound(t *testing.T) {
	srv := parallel(t, maxIdle+4)
	if host, total := idleTo(srv); host != maxIdle || total != maxIdle {
		t.Fatalf("%d idle connections to the host, %d in all, want %d", host, total, maxIdle)
	}
	srv.waitClosed(t, 4)

	next := parallel(t, maxIdle/2)
	if host, _ := idleTo(next); host != maxIdle/2 {
		t.Fatalf("%d idle connections to the second host, want %d", host, maxIdle/2)
	}
	if host, total := idleTo(srv); host != maxIdle/2 || total != maxIdle {
		t.Fatalf("%d idle connections to the first host, %d in all, want %d and %d", host, total, maxIdle/2, maxIdle)
	}
	srv.waitClosed(t, 4+maxIdle/2)
}

// TestPlainHTTPOnly: any other scheme fails before a dial.
func TestPlainHTTPOnly(t *testing.T) {
	_, err := (&Client{Base: "https://127.0.0.1:1"}).Health()
	if err == nil || !strings.Contains(err.Error(), "plain http only") {
		t.Fatalf("Health over https = %v, want a plain-http-only error", err)
	}
}
