// Package loadgen is the scale-qualifying load harness for rmscaled.
//
// One iteration submits Objects experiment submissions drawn from
// Distinct underlying specs through the full HTTP API with Clients
// concurrent clients — each the internal/service/client that
// `rmscaled submit` runs — waits for every distinct experiment to finish
// (via the streaming endpoint — no polling sleep), fetches every
// result, and then audits the daemon's accounting:
//
//   - every distinct spec executed exactly once (dedup collapsed the
//     other Objects-Distinct submissions onto in-flight work or the
//     shared store);
//   - no execution failed;
//   - the result store holds exactly Distinct payloads.
//
// The audited counts are deterministic in the options, so the audit
// gates them exactly on every iteration, and `make loadtest` runs one
// at the default, qualifying shape (1000 objects, 125 distinct, 8
// clients). The latency percentiles, throughput and queue-depth peaks
// it also reports are machine-load facts, recorded ungated for trend
// reading — the same split contiv/netplugin's policyScale and OSM's
// scale framework use.
package loadgen

import (
	"fmt"
	"io"
	"net"
	"net/http"
	//lint:allow nokernelgoroutines the load generator's concurrent clients are the point of the harness; the simulations they trigger run single-threaded in the daemon
	"sync"
	"time"

	"rmscale/internal/service"
	"rmscale/internal/service/client"
	"rmscale/internal/stats"
)

// now is the harness's one wall-clock read site: client-observed
// latency is wall time by definition.
func now() time.Time {
	//lint:allow detertaint the load harness measures real client-observed latency; nothing simulation-visible flows from it
	return time.Now()
}

// Options configures one load iteration.
type Options struct {
	// BaseURL targets a running rmscaled (e.g. "http://127.0.0.1:8080").
	BaseURL string
	// Objects is the total number of submissions; <= 0 picks 1000.
	Objects int
	// Distinct is the number of distinct specs the submissions are
	// drawn from; <= 0 picks Objects/8 (minimum 1). Must not exceed
	// Objects.
	Distinct int
	// Clients is the number of concurrent client workers; <= 0 picks 8.
	Clients int
	// Seed diversifies the distinct specs; same seed, same spec set.
	Seed int64
	// Horizon is the simulated duration of each "sim" object; <= 0
	// picks 250 (a few-millisecond simulation).
	Horizon float64
	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

func (o *Options) defaults() error {
	if o.Objects <= 0 {
		o.Objects = 1000
	}
	if o.Distinct <= 0 {
		o.Distinct = o.Objects / 8
		if o.Distinct < 1 {
			o.Distinct = 1
		}
	}
	if o.Distinct > o.Objects {
		return fmt.Errorf("loadgen: Distinct %d exceeds Objects %d", o.Distinct, o.Objects)
	}
	if o.Clients <= 0 {
		o.Clients = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Horizon <= 0 {
		o.Horizon = 250
	}
	return nil
}

// Metrics is the outcome of one load iteration.
type Metrics struct {
	Objects  int `json:"objects"`
	Distinct int `json:"distinct"`
	Clients  int `json:"clients"`

	// Deterministic accounting, checked exactly by Run's audit.
	Executions int64 `json:"executions"`
	DedupHits  int64 `json:"dedup_hits"`
	StoreLen   int   `json:"store_len"`

	// Client-side admission pressure: submission attempts the daemon
	// refused (429 or 503) and the client retried.
	Retries429 int64 `json:"retries_429"`

	// Latency percentiles in milliseconds, per request type.
	SubmitP50Ms float64 `json:"submit_p50_ms"`
	SubmitP99Ms float64 `json:"submit_p99_ms"`
	StatusP50Ms float64 `json:"status_p50_ms"`
	StatusP99Ms float64 `json:"status_p99_ms"`
	FetchP50Ms  float64 `json:"fetch_p50_ms"`
	FetchP99Ms  float64 `json:"fetch_p99_ms"`

	// Throughput: completed objects per wall second.
	ObjectsPerSec float64 `json:"objects_per_sec"`
	WallSec       float64 `json:"wall_sec"`

	// Daemon-side peaks.
	MaxQueueDepth int `json:"max_queue_depth"`
}

// worker is one load client plus its locally collected samples
// (merged after the join, so no lock contention during the run).
type worker struct {
	client.Client
	submit  []float64
	status  []float64
	fetch   []float64
	retries int64
}

// msSince is the wall time since t0 in milliseconds.
func msSince(t0 time.Time) float64 {
	return float64(now().Sub(t0).Microseconds()) / 1000
}

// Run drives one load iteration against the daemon at opts.BaseURL.
func Run(opts Options) (Metrics, error) {
	if err := opts.defaults(); err != nil {
		return Metrics{}, err
	}
	ids := make([]string, opts.Distinct)
	for j := range ids {
		id, err := service.SpecAt(opts.Seed, opts.Horizon, j).ID()
		if err != nil {
			return Metrics{}, err
		}
		ids[j] = id
	}

	workers := make([]*worker, opts.Clients)
	for c := range workers {
		w := &worker{Client: client.Client{
			Base: opts.BaseURL, ID: fmt.Sprintf("loadgen-%d", c), RetryFor: client.DefaultRetryFor,
		}}
		w.Refused = func(int, time.Duration) { w.retries++ }
		workers[c] = w
	}

	start := now()
	var wg sync.WaitGroup
	errs := make([]error, opts.Clients)
	for c := range workers {
		wg.Add(1)
		//lint:allow nokernelgoroutines one goroutine per concurrent load client is the harness's reason to exist
		go func(c int) {
			defer wg.Done()
			errs[c] = workers[c].run(opts, c, ids)
		}(c)
	}
	wg.Wait()
	wall := now().Sub(start).Seconds()
	for _, err := range errs {
		if err != nil {
			return Metrics{}, fmt.Errorf("loadgen: %w", err)
		}
	}

	// Final accounting from the daemon, then the dedup audit.
	st, err := workers[0].Stats()
	if err != nil {
		return Metrics{}, fmt.Errorf("loadgen: %w", err)
	}

	m := Metrics{
		Objects:       opts.Objects,
		Distinct:      opts.Distinct,
		Clients:       opts.Clients,
		Executions:    st.Executions,
		DedupHits:     st.DedupHits(),
		StoreLen:      st.StoreLen,
		WallSec:       wall,
		MaxQueueDepth: st.MaxQueueDepth,
	}
	if wall > 0 {
		m.ObjectsPerSec = float64(opts.Objects) / wall
	}
	var submit, status, fetch []float64
	for _, w := range workers {
		submit = append(submit, w.submit...)
		status = append(status, w.status...)
		fetch = append(fetch, w.fetch...)
		m.Retries429 += w.retries
	}
	m.SubmitP50Ms, m.SubmitP99Ms = stats.Percentile(submit, 50), stats.Percentile(submit, 99)
	m.StatusP50Ms, m.StatusP99Ms = stats.Percentile(status, 50), stats.Percentile(status, 99)
	m.FetchP50Ms, m.FetchP99Ms = stats.Percentile(fetch, 50), stats.Percentile(fetch, 99)

	// The audit: dedup must have collapsed every repeated submission.
	switch {
	case st.Failed != 0:
		return m, fmt.Errorf("loadgen: %d execution(s) failed", st.Failed)
	case m.Executions != int64(opts.Distinct):
		return m, fmt.Errorf("loadgen: %d executions for %d distinct specs — dedup broke (every distinct spec must execute exactly once)",
			m.Executions, opts.Distinct)
	case m.DedupHits != int64(opts.Objects-opts.Distinct):
		return m, fmt.Errorf("loadgen: %d dedup hits for %d submissions over %d specs, want %d",
			m.DedupHits, opts.Objects, opts.Distinct, opts.Objects-opts.Distinct)
	case m.StoreLen != opts.Distinct:
		return m, fmt.Errorf("loadgen: store holds %d results, want %d", m.StoreLen, opts.Distinct)
	}
	if opts.Log != nil {
		fmt.Fprintf(opts.Log, "loadgen: %d objects (%d distinct) in %.2fs: %.0f obj/s, submit p99 %.2fms, %d retries, queue peak %d\n",
			opts.Objects, opts.Distinct, wall, m.ObjectsPerSec, m.SubmitP99Ms, m.Retries429, m.MaxQueueDepth)
	}
	return m, nil
}

// run is worker c's share of the iteration, each call timed whole.
func (w *worker) run(opts Options, c int, ids []string) error {
	// Submission phase: worker c owns submissions i ≡ c (mod Clients);
	// submission i carries spec i mod Distinct, so every spec is
	// submitted ~Objects/Distinct times.
	for i := c; i < opts.Objects; i += opts.Clients {
		t0 := now()
		_, err := w.Submit(service.SpecAt(opts.Seed, opts.Horizon, i%opts.Distinct))
		w.submit = append(w.submit, msSince(t0))
		if err != nil {
			return err
		}
	}
	// Completion phase: worker c waits on distinct specs j ≡ c (mod
	// Clients) — one status poll for the latency sample, then the
	// stream until terminal, then the result fetch.
	for j := c; j < opts.Distinct; j += opts.Clients {
		t0 := now()
		_, err := w.Status(ids[j])
		w.status = append(w.status, msSince(t0))
		if err != nil {
			return err
		}
		fin, err := w.Watch(ids[j], nil)
		if err != nil {
			return err
		}
		if fin.State != service.StateDone {
			return fmt.Errorf("experiment %s ended %s: %s", ids[j], fin.State, fin.Error)
		}
		t0 = now()
		body, err := w.Result(ids[j])
		w.fetch = append(w.fetch, msSince(t0))
		if err != nil {
			return err
		}
		if len(body) == 0 {
			return fmt.Errorf("result %s: empty payload", ids[j])
		}
	}
	return nil
}

// RunInProcess starts a daemon with cfg, serves it on a loopback
// listener, runs one load iteration against it and tears everything
// down. It is what `rmscaled loadtest` and `make loadtest` run.
func RunInProcess(opts Options, cfg service.Config) (Metrics, error) {
	d, err := service.New(cfg)
	if err != nil {
		return Metrics{}, err
	}
	defer d.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return Metrics{}, err
	}
	srv := &http.Server{Handler: service.NewServer(d).Handler()}
	//lint:allow nokernelgoroutines the HTTP server needs its own accept loop while the harness drives requests from this goroutine
	go srv.Serve(ln)
	defer srv.Close()
	opts.BaseURL = "http://" + ln.Addr().String()
	return Run(opts)
}
