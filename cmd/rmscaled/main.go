// Command rmscaled is the long-lived experiment service: a daemon
// serving the repository's simulations and experiment cases to many
// concurrent clients over HTTP/JSON, with content-addressed dedup, a
// shared result store, admission control and journal-checkpointed
// restart. The client subcommands talk to a running daemon.
//
// Usage:
//
//	rmscaled serve   [-addr :8080] [-dir DIR] [-shards N] [-queue N] [-quiet]
//	                 [-attempts N] [-exec-timeout D] [-breaker-threshold N]
//	                 [-breaker-cooldown D]
//	rmscaled submit  [-addr HOST] [-wait] -kind sim -model M [-seed N] [-horizon F]
//	rmscaled submit  [-addr HOST] [-wait] -kind case|churn -case 1..4 -fidelity F [-seed N]
//	rmscaled status  [-addr HOST] ID
//	rmscaled fetch   [-addr HOST] ID
//	rmscaled loadtest [-objects N] [-distinct N] [-clients N] [-seed N]
//	rmscaled chaos   [-dir DIR] [-specs N] [-clients N] [-seed N] [-report FILE]
//	rmscaled crashtest [-sector N] [-max-torn N] [-workload NAME] [-report FILE]
//
// serve runs the daemon until SIGINT/SIGTERM, then drains gracefully:
// in-flight experiments finish, the queued backlog stays checkpointed
// in -dir's journal, and the next serve over the same -dir resumes it;
// after a SIGKILL it resumes every journaled experiment whose result
// was not yet stored. -dir holds the journal (journal/), the result
// store (results/) and the case runs' directories (exps/); the result
// store keeps every result it commits. The supervision flags bound
// execution (deadline, bounded retries) and shedding (circuit
// breaker).
//
// submit posts one experiment spec and prints the daemon's status
// response — the experiment ID is the spec's deterministic content
// address, so resubmitting an already-known spec joins the existing
// work instead of rerunning it. With -wait, submit streams status
// updates until the experiment is terminal and then fetches the
// result. For up to -retry-for it retries a 429 or 503 refusal
// (saturated queue, draining daemon, open circuit breaker) with capped
// jittered backoff honoring the server's Retry-After hint, and reopens
// a stream the daemon closed early. submit, status and fetch speak to
// the daemon through internal/service/client, the client the load and
// chaos harnesses use too.
//
// loadtest needs no daemon: it starts an in-process one and drives the
// scale-qualifying load iteration from internal/service/loadgen
// against it, printing the metrics as JSON.
//
// chaos runs the service chaos harness (internal/service/chaos):
// scripted executor panics, hangs, transient failures, client
// disconnects, store corruption, journal tears and flaky disk writes
// against in-process daemons, verifying every result byte-identical
// to a fault-free reference. It writes the report as JSON and exits
// non-zero if any assertion failed.
//
// crashtest runs the crash-consistency harness (internal/service/crash)
// entirely in memory: canonical workloads against the journal and the
// result store execute on a simulated filesystem, the harness
// enumerates a power cut at every recorded filesystem op — plus torn-
// and garbled-tail variants of the final append — and reopens both
// stores on each materialized disk image, asserting that recovery
// never fails, never serves wrong bytes, and never loses an
// acknowledged durable record. It prints the report as JSON and exits
// non-zero on any violation.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rmscale/internal/service"
	"rmscale/internal/service/chaos"
	"rmscale/internal/service/client"
	"rmscale/internal/service/crash"
	"rmscale/internal/service/loadgen"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "serve":
		err = serveCmd(args)
	case "submit":
		err = submitCmd(args, os.Stdout, os.Stderr)
	case "status":
		err = statusCmd(args, os.Stdout)
	case "fetch":
		err = fetchCmd(args, os.Stdout)
	case "loadtest":
		err = loadtestCmd(args)
	case "chaos":
		err = chaosCmd(args)
	case "crashtest":
		err = crashtestCmd(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmscaled:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: rmscaled <serve|submit|status|fetch|loadtest|chaos|crashtest> [flags]
  serve     run the daemon (SIGTERM drains gracefully; -dir resumes)
  submit    submit an experiment spec to a running daemon
  status    print an experiment's status
  fetch     print an experiment's stored result
  loadtest  run the in-process load iteration and print its metrics
  chaos     run the service chaos harness and print its report
  crashtest enumerate crash points of the persistence layer and print the report
run 'rmscaled <command> -h' for the command's flags`)
}

// serveCmd runs the daemon until SIGINT/SIGTERM, then drains.
func serveCmd(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	dir := fs.String("dir", "", "service directory: journal/, results/ and the case runs' exps/; empty = ephemeral")
	shards := fs.Int("shards", 2, "worker shards executing experiments concurrently")
	queue := fs.Int("queue", 256, "admission queue capacity (full = HTTP 429)")
	workers := fs.Int("j", 1, "runner workers inside one case/churn experiment")
	quiet := fs.Bool("quiet", false, "suppress the structured event/request log")
	attempts := fs.Int("attempts", 1, "execution attempts per experiment before its failure is final")
	execTimeout := fs.Duration("exec-timeout", 0, "per-sim execution deadline, case/churn get 8x (0 = none)")
	brkThreshold := fs.Int("breaker-threshold", 0, "consecutive execution failures that open the circuit breaker (0 = disabled)")
	brkCooldown := fs.Duration("breaker-cooldown", 30*time.Second, "how long an open breaker sheds submissions before probing")
	fs.Parse(args)

	var logw io.Writer = os.Stderr
	if *quiet {
		logw = nil
	}
	d, err := service.New(service.Config{
		Dir: *dir, Shards: *shards, QueueCap: *queue, CaseWorkers: *workers, Log: logw,
		MaxAttempts: *attempts, ExecTimeout: *execTimeout,
		BreakerThreshold: *brkThreshold, BreakerCooldown: *brkCooldown,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		d.Close()
		return err
	}
	srv := &http.Server{Handler: service.NewServer(d).Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "rmscaled: serving on %s (dir=%q shards=%d queue=%d)\n",
		ln.Addr(), *dir, *shards, *queue)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "rmscaled: %v: draining (in-flight work finishes, backlog stays journaled)\n", sig)
		srv.Close() // stop accepting requests, then drain the daemon
		d.Drain()
		return d.Close()
	case err := <-errc:
		d.Close()
		return err
	}
}

// submitCmd builds a spec from flags, posts it, and optionally waits.
func submitCmd(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "daemon base URL")
	kind := fs.String("kind", "sim", "spec kind: sim, case or churn")
	model := fs.String("model", "", "sim: RMS model name")
	seed := fs.Int64("seed", 1, "master random seed")
	horizon := fs.Float64("horizon", 0, "sim: simulated duration override (0 = default)")
	caseN := fs.Int("case", 0, "case/churn: experiment case 1..4")
	fidelity := fs.String("fidelity", "", "case/churn: smoke, quick or full")
	wait := fs.Bool("wait", false, "stream status until terminal, then fetch the result")
	who := fs.String("client", "rmscaled-cli", "client identity for fairness accounting")
	retryFor := fs.Duration("retry-for", client.DefaultRetryFor, "with -wait: how long to retry 429/503 refusals and reopen a closed stream before giving up")
	fs.Parse(args)

	spec := service.ExperimentSpec{
		Kind: *kind, Seed: *seed, Model: *model, Horizon: *horizon,
		Case: *caseN, Fidelity: *fidelity,
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	c := &client.Client{Base: *addr, ID: *who}
	if *wait {
		c.RetryFor = *retryFor
		c.Refused = func(code int, d time.Duration) {
			fmt.Fprintf(stderr, "rmscaled: submit refused (HTTP %d), retrying in %v\n", code, d.Round(time.Millisecond))
		}
	}
	body, err := c.Submit(spec)
	if err != nil {
		var herr *client.HTTPError
		if !*wait && errors.As(err, &herr) && herr.Refusal() {
			err = fmt.Errorf("%w (rerun with -wait to back off and retry)", err)
		}
		return err
	}
	if !*wait {
		_, err = stdout.Write(body)
		return err
	}
	id, err := spec.ID()
	if err != nil {
		return err
	}
	fin, err := c.Watch(id, func(st service.Status) bool {
		b, _ := json.Marshal(st)
		fmt.Fprintf(stderr, "%s\n", b)
		return true
	})
	if err != nil {
		return err
	}
	if fin.State != service.StateDone {
		return fmt.Errorf("experiment %s failed: %s", id, fin.Error)
	}
	b, err := c.Result(id)
	if err != nil {
		return err
	}
	_, err = stdout.Write(b)
	return err
}

// statusCmd prints an experiment's status snapshot.
func statusCmd(args []string, stdout io.Writer) error {
	c, id, err := queryArgs("status", args)
	if err != nil {
		return err
	}
	st, err := c.Status(id)
	if err != nil {
		return err
	}
	b, err := json.Marshal(st)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}

// fetchCmd prints an experiment's stored result payload.
func fetchCmd(args []string, stdout io.Writer) error {
	c, id, err := queryArgs("fetch", args)
	if err != nil {
		return err
	}
	b, err := c.Result(id)
	if err != nil {
		return err
	}
	_, err = stdout.Write(b)
	return err
}

// queryArgs parses the flags and the one experiment ID of status and
// fetch, which ask once and do not retry.
func queryArgs(name string, args []string) (*client.Client, string, error) {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "daemon base URL")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return nil, "", fmt.Errorf("want exactly one experiment ID, got %d args", fs.NArg())
	}
	return &client.Client{Base: *addr}, fs.Arg(0), nil
}

// loadtestCmd runs one in-process load iteration and prints Metrics.
func loadtestCmd(args []string) error {
	fs := flag.NewFlagSet("loadtest", flag.ExitOnError)
	objects := fs.Int("objects", 1000, "experiment objects submitted per iteration")
	distinct := fs.Int("distinct", 0, "distinct specs among the objects (0 = objects/8)")
	clients := fs.Int("clients", 8, "concurrent load clients")
	seed := fs.Int64("seed", 1, "spec seed base")
	horizon := fs.Float64("horizon", 250, "sim horizon per object")
	shards := fs.Int("shards", 2, "daemon worker shards")
	queue := fs.Int("queue", 256, "daemon queue capacity")
	dir := fs.String("dir", "", "daemon service directory (empty = temp dir)")
	verbose := fs.Bool("v", false, "print the harness progress line to stderr")
	fs.Parse(args)

	sdir := *dir
	if sdir == "" {
		tmp, err := os.MkdirTemp("", "rmscaled-loadtest-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		sdir = tmp
	}
	opts := loadgen.Options{
		Objects: *objects, Distinct: *distinct, Clients: *clients,
		Seed: *seed, Horizon: *horizon,
	}
	if *verbose {
		opts.Log = os.Stderr
	}
	m, err := loadgen.RunInProcess(opts, service.Config{
		Dir: sdir, Shards: *shards, QueueCap: *queue,
	})
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// chaosCmd runs the service chaos harness and prints (and optionally
// writes) its report; any failed assertion exits non-zero.
func chaosCmd(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	dir := fs.String("dir", "", "harness working directory (empty = temp dir)")
	specs := fs.Int("specs", 12, "distinct experiment specs driven through every phase")
	clients := fs.Int("clients", 3, "concurrent chaos clients")
	seed := fs.Int64("seed", 1, "spec and fault-schedule seed")
	report := fs.String("report", "", "also write the report JSON to this file")
	verbose := fs.Bool("v", false, "print phase progress to stderr")
	fs.Parse(args)

	cdir := *dir
	if cdir == "" {
		tmp, err := os.MkdirTemp("", "rmscaled-chaos-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		cdir = tmp
	}
	opts := chaos.Options{Dir: cdir, Specs: *specs, Clients: *clients, Seed: *seed}
	if *verbose {
		opts.Log = os.Stderr
	}
	rep, err := chaos.Run(opts)
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if *report != "" {
		if err := os.WriteFile(*report, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !rep.OK {
		return fmt.Errorf("chaos: %d assertion(s) failed", len(rep.Failures))
	}
	return nil
}

// crashtestCmd runs the crash-consistency harness and prints (and
// optionally writes) its report; any invariant violation exits
// non-zero.
func crashtestCmd(args []string) error {
	fs := flag.NewFlagSet("crashtest", flag.ExitOnError)
	sector := fs.Int("sector", 64, "torn-append granularity in bytes")
	maxTorn := fs.Int("max-torn", 3, "torn-tail prefixes materialized per crash point")
	workload := fs.String("workload", "", "run only this workload (comma-separated names; empty = all)")
	report := fs.String("report", "", "also write the report JSON to this file")
	verbose := fs.Bool("v", false, "print per-workload progress to stderr")
	fs.Parse(args)

	opts := crash.Options{Sector: *sector, MaxTorn: *maxTorn}
	if *workload != "" {
		opts.Workloads = strings.Split(*workload, ",")
	}
	if *verbose {
		opts.Log = os.Stderr
	}
	rep, err := crash.Run(opts)
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if *report != "" {
		if err := os.WriteFile(*report, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !rep.OK {
		return fmt.Errorf("crashtest: %d invariant violation(s) across %d crash states", rep.FailureCount, rep.States)
	}
	return nil
}
