package main

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"positres/internal/atomicio"
)

// span is one timed call across a layer boundary. Spans of one op
// share Op; Parent is the span that caused it (0 for an op's root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans in memory; they are written out when the run
// ends. A nil *tracer records nothing, which is how untraced runs
// carry no tracing: they never construct one. While off (between
// traced ops) the HTTP wrappers pass requests straight through.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64
	on     atomic.Bool
	op     atomic.Int64  // current op
	root   atomic.Uint64 // current op's root span
	cur    atomic.Uint64 // the benchmark's call in flight, if any

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// beginOp starts op's root span and makes it the parent of every span
// recorded until the next beginOp.
func (t *tracer) beginOp(op int64, name string) (uint64, time.Time) {
	if t == nil {
		return 0, time.Now()
	}
	id := t.nextID.Add(1)
	t.op.Store(op)
	t.root.Store(id)
	return id, time.Now()
}

// record stores a finished span under parent (the current op's root
// when parent is 0).
func (t *tracer) record(id, parent uint64, name string, start, end time.Time, bytes int64) {
	if t == nil || !t.on.Load() {
		return
	}
	if id == 0 {
		id = t.nextID.Add(1)
	}
	if parent == 0 && id != t.root.Load() {
		parent = t.root.Load()
	}
	s := span{
		ID: id, Parent: parent, Op: t.op.Load(), Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Bytes: bytes,
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs f inside a span named name and returns its duration.
// While f runs, the span is the parent of the spans the servers record
// for the requests it causes (the benchmark's calls are serial, so the
// first span in flight is the cause).
func (t *tracer) timed(name string, f func() error) (time.Duration, error) {
	if t == nil {
		start := time.Now()
		err := f()
		return time.Since(start), err
	}
	id := t.nextID.Add(1)
	outer := t.cur.CompareAndSwap(0, id)
	start := time.Now()
	err := f()
	end := time.Now()
	if outer {
		t.cur.Store(0)
	}
	t.record(id, 0, name, start, end, 0)
	return end.Sub(start), err
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// wrap returns the http.Handler wrapper recording one span per
// request served by the named server role ("front" or "worker"),
// with the response bytes written.
func (t *tracer) wrap(role string) func(http.Handler) http.Handler {
	if t == nil {
		return nil
	}
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !t.on.Load() {
				next.ServeHTTP(w, r)
				return
			}
			parent := t.cur.Load() // at arrival: the cause may return before the handler does
			cw := &countingWriter{ResponseWriter: w}
			start := time.Now()
			next.ServeHTTP(cw, r)
			t.record(0, parent, role+"."+routeName(r), start, time.Now(), cw.n)
		})
	}
}

// routeName labels a request by the service route it hits.
func routeName(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/shards":
		return "shard"
	case p == "/v1/campaigns":
		return "submit"
	case strings.HasSuffix(p, "/results"):
		if strings.Contains(r.Header.Get("Accept"), "json") {
			return "results_agg"
		}
		return "results_csv"
	case p == "/metrics":
		return "metrics"
	case p == "/healthz":
		return "healthz"
	}
	return "other"
}

// countingWriter counts response body bytes. It forwards Flush and
// exposes the wrapped writer to http.ResponseController, so streaming
// and trailers behave as without it.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (c *countingWriter) Unwrap() http.ResponseWriter { return c.ResponseWriter }

// spanTotals aggregates spans by name: count, total duration, self
// time (duration minus the part covered by child spans) and bytes.
type spanTotal struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
	Bytes  int64   `json:"bytes,omitempty"`
}

func spanTotals(spans []span) map[string]spanTotal {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]spanTotal{}
	for _, s := range spans {
		t := out[s.Name]
		t.Count++
		t.TotalS += s.dur().Seconds()
		t.SelfS += (s.dur() - covered(s, children[s.ID])).Seconds()
		t.Bytes += s.Bytes
		out[s.Name] = t
	}
	return out
}

// covered is how much of parent's interval its children cover,
// counting overlapping children once.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// writeTrace writes the trace document of a traced run.
func writeTrace(path string, doc any) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		return enc.Encode(doc)
	})
}
