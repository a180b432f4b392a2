// Package serve implements positserve, the campaign-as-a-service HTTP
// layer over the fault-injection engine.
//
// The service exposes four resources, all JSON (docs/SERVICE.md is
// the full reference):
//
//   - POST /v1/inject — synchronous single-value, single-bit what-if
//     queries.
//   - POST /v1/campaigns — durable campaign jobs on a bounded queue
//     drained by a fixed worker pool; 429 + Retry-After under
//     backpressure. GET /v1/campaigns/{id} polls status and
//     GET /v1/campaigns/{id}/results streams the published CSVs.
//   - GET /metrics — the positres-telemetry/v1 engine snapshot plus
//     per-endpoint request counters and log₂ latency histograms.
//   - GET /healthz — liveness and drain state.
//
// Durability is inherited from internal/runner: every completed shard
// is an fsynced store block under DataDir, so a crash (kill -9) or a graceful
// drain (SIGTERM) loses at most in-flight shard attempts, and the
// next process start resumes unfinished jobs automatically with
// results byte-identical to an uninterrupted run.
package serve

import (
	"context"
	"errors"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"positres/internal/sdrbench"
	"positres/internal/telemetry"
)

// maxBodyBytes bounds every request body the service will read (1 MiB
// — orders of magnitude above any legitimate request).
const maxBodyBytes = 1 << 20

// Config parameterizes a Server. The zero value of every field except
// DataDir is usable and takes the documented default.
type Config struct {
	// DataDir is the root of all persistent state: jobs live under
	// DataDir/jobs/<id>/ with their runner state (manifest and
	// stores) in state/.
	// Required; reusing the directory across restarts is what makes
	// jobs resume.
	DataDir string
	// QueueDepth bounds campaigns submitted but not yet running;
	// submissions beyond it get 429. 0 means 16.
	QueueDepth int
	// JobWorkers is how many campaigns run concurrently. 0 means 1
	// (campaigns are CPU-bound; parallelism belongs inside a campaign).
	JobWorkers int
	// CampaignWorkers is the per-campaign shard worker count, passed
	// through to runner.Config.Workers. 0 means GOMAXPROCS.
	CampaignWorkers int
	// RequestTimeout is the context deadline applied to the
	// synchronous endpoints (inject, status, results, metrics,
	// healthz). It deliberately does not apply to POST /v1/campaigns,
	// whose ?wait=1 mode is open-ended. 0 means 15s.
	RequestTimeout time.Duration
	// Metrics receives engine telemetry from every campaign the
	// server runs and is re-exported on /metrics. nil means a fresh
	// telemetry.New().
	Metrics *telemetry.Metrics
	// Workers is the static list of worker base URLs this instance
	// coordinates; more can self-register at runtime via
	// POST /v1/workers. While at least one worker is registered, every
	// campaign's shards are dispatched over HTTP instead of computed
	// locally. Empty (and no registrations) means single-node
	// operation — the pre-cluster behavior, unchanged.
	Workers []string
	// HeartbeatInterval is the worker health-probe period (and per-
	// probe timeout). 0 means 5s.
	HeartbeatInterval time.Duration
	// ClusterRetryBase seeds the per-worker cooldown after a failed
	// dispatch or probe (runner.Backoff schedule, capped at 30s).
	// 0 means 500ms.
	ClusterRetryBase time.Duration
	// CrashAfterShards is a test-only hook: when positive, the
	// process hard-exits with status 137 (no drain, no manifest
	// update) after that many shard completions, simulating a crash
	// for scripts/serve_e2e.sh. 0 disables it.
	CrashAfterShards int
}

// withDefaults returns cfg with zero fields replaced by defaults.
func (cfg Config) withDefaults() Config {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.JobWorkers <= 0 {
		cfg.JobWorkers = 1
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 15 * time.Second
	}
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.New()
	}
	return cfg
}

// Server is the positserve HTTP service. Construct with New, launch
// workers with Start, mount Handler on an http.Server, and after
// shutting the listener down call Wait to join the drained workers.
// All methods are safe for concurrent use.
type Server struct {
	cfg            Config
	metrics        *telemetry.Metrics
	httpMetrics    *telemetry.HTTPMetrics
	clusterMetrics *telemetry.ClusterMetrics
	datasets       sdrbench.DatasetCache // worker side: POST /v1/shards
	jobs           *jobStore
	cluster        *dispatcher
	handler        http.Handler
}

// New builds a Server rooted at cfg.DataDir and recovers every
// unfinished job a previous process left there (re-enqueued in
// submission order; they start running once Start is called).
func New(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return nil, errors.New("serve: Config.DataDir is required")
	}
	cfg = cfg.withDefaults()
	jobs, err := newJobStore(filepath.Join(cfg.DataDir, "jobs"),
		cfg.QueueDepth, cfg.CampaignWorkers, cfg.Metrics, cfg.CrashAfterShards)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:            cfg,
		metrics:        cfg.Metrics,
		httpMetrics:    telemetry.NewHTTP(),
		clusterMetrics: telemetry.NewCluster(),
		jobs:           jobs,
	}
	s.cluster = newDispatcher(cfg.Workers, cfg.HeartbeatInterval, cfg.ClusterRetryBase, s.clusterMetrics)
	jobs.executeFor = s.cluster.executeFor
	s.handler = s.routes()
	return s, nil
}

// Start launches the job worker pool and, in coordinator mode, the
// worker heartbeat loop. Cancelling ctx begins the graceful drain: no
// new jobs are dequeued, running campaigns are cancelled through the
// runner (completed shards stored, manifest marked cancelled), and
// Wait returns once the pool has drained.
func (s *Server) Start(ctx context.Context) {
	s.jobs.start(ctx, s.cfg.JobWorkers)
	s.cluster.start(ctx)
}

// Wait blocks until every job worker has drained. Call it after
// cancelling the Start context and shutting down the HTTP listener.
func (s *Server) Wait() { s.jobs.wait() }

// Handler returns the root http.Handler, ready to mount on an
// http.Server (or httptest.Server).
func (s *Server) Handler() http.Handler { return s.handler }

// routes builds the method-aware mux. Every registered path gets a
// method-less twin so verb mismatches produce the service's JSON 405
// (with Allow listing every supported verb — paths like /v1/workers
// serve more than one), and the root catch-all produces a JSON 404.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	// Twins are registered after all verb routes so a path serving
	// multiple verbs gets exactly one twin advertising all of them.
	type pathInfo struct {
		verbs []string
		label string // metrics label: the first verb pattern on the path
	}
	paths := map[string]*pathInfo{}
	reg := func(pattern string, h http.HandlerFunc, timed bool) {
		if timed {
			h = s.withTimeout(h)
		}
		mux.Handle(pattern, s.withMetrics(pattern, h))
		verb, path, ok := strings.Cut(pattern, " ")
		if !ok {
			return
		}
		if paths[path] == nil {
			paths[path] = &pathInfo{label: pattern}
		}
		paths[path].verbs = append(paths[path].verbs, verb)
	}
	reg("POST /v1/inject", s.handleInject, true)
	reg("POST /v1/campaigns", s.handleSubmitCampaign, false) // ?wait=1 is open-ended
	reg("GET /v1/campaigns/{id}", s.handleCampaignStatus, true)
	reg("GET /v1/campaigns/{id}/results", s.handleCampaignResults, true)
	reg("POST /v1/shards", s.handleRunShard, false) // shard computation is bounded by the campaign watchdog, not the request timeout
	reg("POST /v1/workers", s.handleRegisterWorker, true)
	reg("GET /v1/workers", s.handleListWorkers, true)
	reg("GET /metrics", s.handleMetrics, true)
	reg("GET /healthz", s.handleHealthz, true)
	for path, info := range paths {
		mux.Handle(path, s.withMetrics(info.label, methodNotAllowed(strings.Join(info.verbs, ", "))))
	}
	mux.Handle("/", s.withMetrics("(unrouted)", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, codeNotFound, "no such resource %s", r.URL.Path)
	}))
	return mux
}

// methodNotAllowed returns a handler producing the JSON 405 envelope
// with the allowed verbs advertised.
func methodNotAllowed(allow string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		writeError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed,
			"method %s not allowed (allow: %s)", r.Method, allow)
	}
}

// statusRecorder captures the response status for the metrics
// middleware; an unset status counts as 200, matching net/http.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

// WriteHeader records the status before delegating.
func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

// Flush preserves streaming for handlers that need it.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// withMetrics counts the request and observes its latency under the
// route pattern (stable cardinality — never the raw URL).
func (s *Server) withMetrics(pattern string, next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next(rec, r)
		s.httpMetrics.Observe(pattern, rec.status, time.Since(start))
	}
}

// withTimeout applies the per-request context deadline. Handlers and
// everything below them (including core.RunRange) honor context
// cancellation, so the deadline also fires when the client
// disconnects — net/http cancels the request context either way.
func (s *Server) withTimeout(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		next(w, r.WithContext(ctx))
	}
}
