package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rmscale/internal/service"
)

// daemon serves a fresh in-memory daemon over HTTP for one test.
func daemon(t *testing.T, cfg service.Config) (*service.Daemon, string) {
	t.Helper()
	if cfg.Exec == nil {
		cfg.Exec = func(_ context.Context, spec service.ExperimentSpec, _ string) ([]byte, error) {
			return []byte(fmt.Sprintf("{\"ran\":%q}\n", spec.String())), nil
		}
	}
	d, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewServer(d).Handler())
	t.Cleanup(func() {
		srv.Close()
		d.Close()
	})
	return d, srv.URL
}

// get returns the daemon's raw answer to a GET.
func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d, %v", url, resp.StatusCode, err)
	}
	return b
}

func TestSubmitWaitStatusFetch(t *testing.T) {
	d, url := daemon(t, service.Config{})
	spec := service.ExperimentSpec{Kind: service.KindSim, Model: "LOWEST", Seed: 3}
	id, err := spec.ID()
	if err != nil {
		t.Fatal(err)
	}

	var out, errw bytes.Buffer
	if err := submitCmd([]string{"-addr", url, "-model", "LOWEST", "-seed", "3", "-wait"}, &out, &errw); err != nil {
		t.Fatalf("submit -wait: %v\n%s", err, errw.String())
	}
	stored, ok := d.Result(id)
	if !ok || !bytes.Equal(out.Bytes(), stored) {
		t.Fatalf("submit -wait printed %q, the daemon stores %q", out.Bytes(), stored)
	}
	if !strings.Contains(errw.String(), `"state":"done"`) {
		t.Fatalf("status echo %q has no done line", errw.String())
	}

	out.Reset()
	if err := statusCmd([]string{"-addr", url, id}, &out); err != nil {
		t.Fatal(err)
	}
	if want := get(t, url+"/v1/experiments/"+id); !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("status printed %q, the daemon answers %q", out.Bytes(), want)
	}

	out.Reset()
	if err := fetchCmd([]string{"-addr", url, id}, &out); err != nil {
		t.Fatal(err)
	}
	if want := get(t, url+"/v1/experiments/"+id+"/result"); !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("fetch printed %q, the daemon answers %q", out.Bytes(), want)
	}
}

// TestSubmitRefusedSuggestsWait saturates a one-slot queue: a submit
// without -wait fails at once and points at -wait.
func TestSubmitRefusedSuggestsWait(t *testing.T) {
	started, release := make(chan struct{}, 1), make(chan struct{})
	d, url := daemon(t, service.Config{Shards: 1, QueueCap: 1,
		Exec: func(context.Context, service.ExperimentSpec, string) ([]byte, error) {
			started <- struct{}{}
			<-release
			return []byte("{}"), nil
		}})
	defer close(release)
	if _, err := d.Submit(service.ExperimentSpec{Kind: service.KindSim, Model: "LOWEST", Seed: 1}, "t"); err != nil {
		t.Fatal(err)
	}
	<-started // the shard holds the first spec; the queue is empty
	if _, err := d.Submit(service.ExperimentSpec{Kind: service.KindSim, Model: "LOWEST", Seed: 2}, "t"); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	err := submitCmd([]string{"-addr", url, "-model", "LOWEST", "-seed", "3"}, &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "HTTP 429") || !strings.Contains(err.Error(), "rerun with -wait") {
		t.Fatalf("refused submit error = %v, want HTTP 429 with the -wait hint", err)
	}
	if out.Len() != 0 {
		t.Fatalf("refused submit printed %q", out.String())
	}
}
