package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"cdrstoch/internal/obs"
	"cdrstoch/internal/obs/cost"
	"cdrstoch/internal/serve"
)

// harness is one in-process cdrserved: the serve.Server configured as the
// daemon's flag defaults configure it, mounted on a real loopback
// listener, plus the HTTP client that talks to it.
type harness struct {
	srv         *serve.Server
	hs          *http.Server
	url         string
	client      *http.Client
	served      chan error
	stopRuntime func()
}

// startServer mirrors cmd/cdrserved with no flags set: cache 256,
// 4 concurrent solves, solver team width 0 (GOMAXPROCS/4), 2 job workers,
// queue 8, 120 s sync timeout, a metrics registry, no tracer, and the
// runtime/metrics poller at 10 s.
func startServer() (*harness, error) {
	reg := obs.NewRegistry()
	stopRuntime := cost.NewRuntimeCollector(reg).Start(10 * time.Second)
	srv := serve.NewServer(serve.ServerConfig{
		Engine: serve.EngineConfig{
			CacheEntries:  256,
			MaxConcurrent: 4,
			SolveWorkers:  0,
		},
		Workers:     2,
		QueueDepth:  8,
		SyncTimeout: 120 * time.Second,
		Registry:    reg,
		ErrorLog:    log.New(os.Stderr, "cdrserved: ", log.LstdFlags|log.LUTC),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		stopRuntime()
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	h := &harness{
		srv:         srv,
		hs:          &http.Server{Handler: srv.Handler()},
		url:         "http://" + ln.Addr().String(),
		served:      make(chan error, 1),
		stopRuntime: stopRuntime,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 8,
			DisableCompression:  true,
		}},
	}
	go func() { h.served <- h.hs.Serve(ln) }()
	return h, nil
}

// close shuts the listener and server down and waits for both.
func (h *harness) close() error {
	h.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	if serr := <-h.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	h.srv.Close()
	h.stopRuntime()
	return err
}

// response is what the client saw for one request.
type response struct {
	status  int
	body    []byte
	latency time.Duration
	cache   string // X-Solve-Cost-Cache
	cycles  string // X-Solve-Cost-Cycles
	spmvs   string // X-Solve-Cost-Spmvs
	states  string // X-Solve-Cost-States
	err     error
}

// do sends one request and reads the whole response.
func (h *harness) do(r *request) response {
	start := time.Now()
	resp, err := h.client.Post(h.url+r.Path, "application/json", bytes.NewReader(r.Body))
	if err != nil {
		return response{latency: time.Since(start), err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := response{
		status:  resp.StatusCode,
		body:    body,
		latency: time.Since(start),
		cache:   resp.Header.Get("X-Solve-Cost-Cache"),
		cycles:  resp.Header.Get("X-Solve-Cost-Cycles"),
		spmvs:   resp.Header.Get("X-Solve-Cost-Spmvs"),
		states:  resp.Header.Get("X-Solve-Cost-States"),
		err:     err,
	}
	if err == nil && out.status != http.StatusOK {
		out.err = fmt.Errorf("%s answered %d: %s", r.Path, out.status, bytes.TrimSpace(body))
	}
	return out
}
