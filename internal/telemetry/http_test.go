package telemetry

import (
	"sync"
	"testing"
	"time"
)

func TestHTTPMetricsObserve(t *testing.T) {
	h := NewHTTP()
	h.Observe("POST /v1/inject", 200, 5*time.Microsecond)
	h.Observe("POST /v1/inject", 400, 9*time.Microsecond)
	h.Observe("GET /metrics", 200, time.Millisecond)

	s := h.Snapshot()
	inj, ok := s.Endpoints["POST /v1/inject"]
	if !ok {
		t.Fatalf("inject endpoint missing from snapshot: %+v", s)
	}
	if inj.Requests != 2 || inj.Errors != 1 {
		t.Fatalf("inject: requests=%d errors=%d, want 2/1", inj.Requests, inj.Errors)
	}
	if inj.Latency.Count != 2 {
		t.Fatalf("inject latency count = %d, want 2", inj.Latency.Count)
	}
	if got := s.Endpoints["GET /metrics"].Requests; got != 1 {
		t.Fatalf("metrics endpoint requests = %d, want 1", got)
	}
	if len(s.Endpoints) != 2 {
		t.Fatalf("snapshot has %d endpoints, want 2: %+v", len(s.Endpoints), s)
	}
}

func TestHTTPMetricsNilSafe(t *testing.T) {
	var h *HTTPMetrics
	h.Observe("GET /x", 200, time.Microsecond) // must not panic
	if s := h.Snapshot(); s.Endpoints == nil || len(s.Endpoints) != 0 {
		t.Fatalf("nil snapshot = %+v, want empty non-nil map", s)
	}
}

// TestHTTPMetricsRace hammers Observe and Snapshot concurrently; run
// under -race this pins the lock discipline of the lazy endpoint map.
func TestHTTPMetricsRace(t *testing.T) {
	h := NewHTTP()
	endpoints := []string{"POST /v1/inject", "POST /v1/campaigns", "GET /metrics"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.Observe(endpoints[(w+i)%len(endpoints)], 200+(i%2)*300, time.Duration(i)*time.Microsecond)
				if i%50 == 0 {
					_ = h.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, e := range h.Snapshot().Endpoints {
		total += e.Requests
	}
	if total != 8*500 {
		t.Fatalf("total requests = %d, want %d", total, 8*500)
	}
}
