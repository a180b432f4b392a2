package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"positres/internal/serve"
	"positres/internal/telemetry"
)

// server is one in-process positserve instance on a loopback port.
type server struct {
	url     string
	dataDir string
	srv     *serve.Server
	metrics *telemetry.Metrics
	hs      *http.Server
	cancel  context.CancelFunc
	served  chan error
}

// startServer starts a server rooted at dataDir with the default
// serve.Config apart from DataDir, the worker list and the engine
// metrics. wrap, when non-nil, wraps the server's handler (the
// tracer's span recorder).
func startServer(dataDir string, workers []string, wrap func(http.Handler) http.Handler) (*server, error) {
	m := telemetry.New()
	srv, err := serve.New(serve.Config{DataDir: dataDir, Workers: workers, Metrics: m})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv.Start(ctx)
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	s := &server{
		url:     "http://" + ln.Addr().String(),
		dataDir: dataDir,
		srv:     srv,
		metrics: m,
		hs:      &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		cancel:  cancel,
		served:  make(chan error, 1),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close drains the job workers, shuts the listener down and waits for
// both to finish.
func (s *server) close() error {
	s.cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	s.srv.Wait()
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// deployment is the set of servers a service workload talks to: one
// node, or a coordinator with its workers.
type deployment struct {
	front   *server   // the server the client submits to
	workers []*server // cluster workers, started before the front
}

// startDeployment starts a single node (workers == 0) or a
// coordinator with that many in-process workers, each under its own
// data directory below dir.
func startDeployment(dir string, workers int, wrap func(role string) func(http.Handler) http.Handler) (*deployment, error) {
	d := &deployment{}
	var urls []string
	for i := 0; i < workers; i++ {
		w, err := startServer(fmt.Sprintf("%s/worker%d", dir, i), nil, wrap("worker"))
		if err != nil {
			_ = d.close()
			return nil, err
		}
		d.workers = append(d.workers, w)
		urls = append(urls, w.url)
	}
	front, err := startServer(dir+"/front", urls, wrap("front"))
	if err != nil {
		_ = d.close()
		return nil, err
	}
	d.front = front
	return d, nil
}

func (d *deployment) close() error {
	var err error
	if d.front != nil {
		err = d.front.close()
	}
	for _, w := range d.workers {
		err = errors.Join(err, w.close())
	}
	return err
}

// newClient returns a client holding at most one connection to the
// front server.
func newClient(base string) (*serve.Client, *http.Transport) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return serve.NewClient(base, &http.Client{Transport: tr, Timeout: 2 * time.Minute}), tr
}

// metricsDoc is the part of GET /metrics the benchmark reads.
type metricsDoc struct {
	Campaign telemetry.Snapshot         `json:"campaign"`
	HTTP     telemetry.HTTPSnapshot     `json:"http"`
	Cluster  *telemetry.ClusterSnapshot `json:"cluster"`
}

// scrapeMetrics fetches a server's /metrics snapshot.
func scrapeMetrics(ctx context.Context, hc *http.Client, base string) (*metricsDoc, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	var doc metricsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	return &doc, nil
}

// httpErrors sums the error counts over every endpoint.
func (d *metricsDoc) httpErrors() int64 {
	var n int64
	for _, e := range d.HTTP.Endpoints {
		n += e.Errors
	}
	return n
}

// wireFallbacks is the coordinator's count of shard responses that
// fell back from the binary frame to CSV.
func (d *metricsDoc) wireFallbacks() int64 {
	if d.Cluster == nil {
		return 0
	}
	return d.Cluster.WireFallbacks
}
