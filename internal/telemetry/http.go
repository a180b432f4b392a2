package telemetry

// HTTP-layer metrics for cmd/positserve: per-endpoint request and
// error counters plus the same log₂ latency histogram the shard path
// uses. Endpoints are registered lazily on first observation, so the
// serving layer does not need to pre-declare its route table here.

import (
	"sync"
	"time"
)

// EndpointMetrics is the metric set of one HTTP endpoint. All fields
// are safe for concurrent use; the zero value is ready to use.
// Instances must not be copied after first use (the histogram and
// counters are atomics) — they are always handled by pointer.
type EndpointMetrics struct {
	// Requests counts every completed request, whatever its status.
	Requests Counter
	// Errors counts requests that finished with status >= 400
	// (client and server errors alike).
	Errors Counter
	// Latency is the wall-clock handler time, request start to the
	// last byte handed to the ResponseWriter, in the shared log₂
	// histogram (bucket bounds in microseconds).
	Latency Histogram
}

// HTTPMetrics tracks per-endpoint HTTP request metrics. The zero
// value is not usable; construct with NewHTTP. A nil *HTTPMetrics is
// a valid no-op receiver for Observe and Snapshot, mirroring the
// nil-safety of *Metrics. All methods are safe for concurrent use.
type HTTPMetrics struct {
	mu        sync.RWMutex
	endpoints map[string]*EndpointMetrics
}

// NewHTTP returns an empty HTTPMetrics ready for concurrent use.
func NewHTTP() *HTTPMetrics {
	return &HTTPMetrics{endpoints: map[string]*EndpointMetrics{}}
}

// Endpoint returns the metric set registered under name, creating it
// on first use. The returned pointer is stable for the lifetime of
// the HTTPMetrics and safe to retain.
func (h *HTTPMetrics) Endpoint(name string) *EndpointMetrics {
	h.mu.RLock()
	e := h.endpoints[name]
	h.mu.RUnlock()
	if e != nil {
		return e
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if e = h.endpoints[name]; e == nil {
		e = &EndpointMetrics{}
		h.endpoints[name] = e
	}
	return e
}

// Observe records one completed request against endpoint name: its
// response status code and wall-clock duration (nil-safe).
func (h *HTTPMetrics) Observe(name string, status int, d time.Duration) {
	if h == nil {
		return
	}
	e := h.Endpoint(name)
	e.Requests.Add(1)
	if status >= 400 {
		e.Errors.Add(1)
	}
	e.Latency.Observe(d)
}

// EndpointSnapshot is the JSON view of one endpoint's metrics.
type EndpointSnapshot struct {
	// Requests counts completed requests, whatever their status.
	Requests int64 `json:"requests"`
	// Errors counts the subset that finished with status >= 400.
	Errors int64 `json:"errors"`
	// Latency is the handler wall-clock histogram (log₂ µs bands).
	Latency HistogramSnapshot `json:"latency"`
}

// HTTPSnapshot is the JSON view of an HTTPMetrics set.
type HTTPSnapshot struct {
	// Endpoints is keyed by endpoint name ("METHOD /path"); it is
	// empty but non-nil when nothing has been observed.
	Endpoints map[string]EndpointSnapshot `json:"endpoints"`
}

// Snapshot captures the current per-endpoint values. Nil-safe: a nil
// receiver yields an empty (non-nil) endpoint map. Like
// Metrics.Snapshot, cross-field skew is bounded by in-flight requests.
func (h *HTTPMetrics) Snapshot() HTTPSnapshot {
	s := HTTPSnapshot{Endpoints: map[string]EndpointSnapshot{}}
	if h == nil {
		return s
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	for name, e := range h.endpoints {
		s.Endpoints[name] = EndpointSnapshot{
			Requests: e.Requests.Load(),
			Errors:   e.Errors.Load(),
			Latency:  e.Latency.Snapshot(),
		}
	}
	return s
}
