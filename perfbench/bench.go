package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"
)

// runBenchmark sets the workload up o.setups times (keeping the last
// instance), runs the closed loop until the timed ops sum to
// o.measure, checks every op's outputs after its timed section, and
// returns the end-to-end metrics — or, traced, the per-layer ones.
func runBenchmark(ctx context.Context, o options, stdout io.Writer) (*result, error) {
	pairs, err := matrixPairs()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workDir, "run-"+o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	prov := newProvenance(o, dir, trialsPerOp(pairs, o.trialsPerBit))
	provLine, err := json.Marshal(map[string]provenance{"provenance": prov})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(stdout, string(provLine))

	sd := &seeds{state: o.seed}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	var setupTimes []time.Duration
	var w workload
	for i := 0; i < o.setups; i++ {
		runtime.GC() // each set-up starts from the same heap
		t0 := time.Now()
		cand, err := setupWorkload(o, filepath.Join(dir, fmt.Sprintf("setup%d", i)), sd, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		_, check, err := cand.op(ctx, sd.next()) // warm-up op, discarded
		setupTimes = append(setupTimes, time.Since(t0))
		if err == nil {
			err = check(ctx)
		}
		if err == nil && i < o.setups-1 {
			err = cand.close()
		}
		if err != nil {
			_ = cand.close()
			return nil, fmt.Errorf("set-up warm-up op: %w", err)
		}
		if i == o.setups-1 {
			w = cand
		}
	}
	defer w.close()

	lp, err := runLoop(ctx, o, w, sd, tr)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: lp.attempted, Failed: lp.failed, Correct: lp.failed == 0}

	var ms *metricSet
	if !o.trace {
		var tail map[string]float64
		ms, tail = endToEndMetrics(lp, setupTimes)
		fmt.Fprintf(stdout, "samples: %d set-ups, %d ops (campaign and throughput), %d fetches of each kind\n",
			len(setupTimes), len(lp.ops), len(lp.ops)*len(pairs))
		for _, d := range tails {
			fmt.Fprintf(stdout, "%-34s %16.6g %s (p90, printed only)\n", d.name, tail[d.name], d.unit)
		}
	} else {
		lad, err := runLadder(ctx, o, filepath.Join(dir, "ladder"), sd.next(), tr)
		if err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		ms = lad.metrics
		errs, err := loopHTTPErrors(ctx, w)
		if err != nil {
			return nil, err
		}
		ms.set("serve.http_errors", ms.values["serve.http_errors"]+float64(errs))
		lp.setRuntimeMetrics(ms)
		spans := tr.snapshot()
		doc := map[string]any{
			"provenance":  prov,
			"ladder":      lad.rungs,
			"span_totals": spanTotals(spans),
			"spans":       spans,
		}
		path := filepath.Join(o.workDir, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))
		if err := writeTrace(path, doc); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		printLadder(stdout, lad.rungs, path)
	}
	res.Metrics, err = ms.build()
	if err != nil {
		return nil, err
	}
	return res, nil
}

// loop is what the closed loop measured.
type loop struct {
	attempted, failed int
	ops               []opStats // successful ops only

	// Traced runs alternate traced and untraced ops; the op walls of
	// each half give the tracing overhead.
	tracedWall, plainWall []time.Duration
	rt                    runtimeDelta // summed over the timed ops
}

// maxFailedInARow stops a loop whose every op fails (a dead server)
// instead of spinning until the measuring time is used up.
const maxFailedInARow = 5

func runLoop(ctx context.Context, o options, w workload, sd *seeds, tr *tracer) (*loop, error) {
	lp := &loop{}
	var timed time.Duration
	inARow := 0
	runtime.GC()
	for timed < o.measure || (o.trace && lp.attempted < 2) {
		traced := tr != nil && lp.attempted%2 == 1
		if tr != nil {
			tr.on.Store(traced)
		}
		root, start := tr.beginOp(int64(lp.attempted), "op")
		var rt0 runtimeDelta
		if tr != nil {
			rt0 = readRuntime()
		}
		st, check, err := w.op(ctx, sd.next())
		if tr != nil {
			tr.record(root, 0, "op", start, time.Now(), 0)
			if svc, ok := w.(*service); ok && err == nil {
				err = svc.traceShards(start)
			}
			tr.on.Store(false)
			// The runtime books GC CPU when a cycle ends; end one now so
			// the collection of this op's garbage counts against it.
			runtime.GC()
			lp.rt.add(readRuntime().sub(rt0))
		}
		lp.attempted++
		timed += st.wall
		if err == nil {
			err = check(ctx)
		}
		// The check's garbage (a reference campaign and its CSVs) is the
		// benchmark's, not the program's: collect it here, untimed, so
		// every timed op starts from the same heap.
		runtime.GC()
		if err != nil {
			lp.failed++
			fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", lp.attempted-1, err)
			if inARow++; inARow >= maxFailedInARow {
				break
			}
			continue
		}
		inARow = 0
		lp.ops = append(lp.ops, st)
		if traced {
			lp.tracedWall = append(lp.tracedWall, st.wall)
		} else {
			lp.plainWall = append(lp.plainWall, st.wall)
		}
	}
	if len(lp.ops) == 0 {
		return nil, fmt.Errorf("no op succeeded (%d attempted)", lp.attempted)
	}
	return lp, nil
}

// endToEndMetrics derives the -trace 0 metrics from the loop. Every
// op runs the same number of trials, so throughput and CPU cost are
// taken at the median op: on a shared machine a median shrugs off the
// ops a neighbour's burst slowed, where a total would not.
func endToEndMetrics(lp *loop, setupTimes []time.Duration) (*metricSet, map[string]float64) {
	ms := newMetricSet(endToEnd)
	var wall, cpu, campaign, csv, agg []time.Duration
	for _, st := range lp.ops {
		wall = append(wall, st.wall)
		cpu = append(cpu, st.cpu)
		campaign = append(campaign, st.campaign)
		csv = append(csv, st.csv...)
		agg = append(agg, st.agg...)
	}
	trials := float64(lp.ops[0].trials)
	ms.set("setup_s", quantile(seconds(setupTimes), 0.5))
	ms.set("trials_per_s", trials/quantile(seconds(wall), 0.5))
	ms.set("campaign_p50_s", quantile(seconds(campaign), 0.5))
	ms.set("csv_fetch_p50_ms", 1e3*quantile(seconds(csv), 0.5))
	ms.set("agg_fetch_p50_ms", 1e3*quantile(seconds(agg), 0.5))
	ms.set("cpu_s_per_mtrial", quantile(seconds(cpu), 0.5)/trials*1e6)
	ms.set("peak_rss_mib", peakRSSMiB())
	tail := map[string]float64{
		"campaign_p90_s":   quantile(seconds(campaign), 0.9),
		"csv_fetch_p90_ms": 1e3 * quantile(seconds(csv), 0.9),
		"agg_fetch_p90_ms": 1e3 * quantile(seconds(agg), 0.9),
	}
	return ms, tail
}

// setRuntimeMetrics records the Go runtime's share of the loop and the
// tracing overhead.
func (lp *loop) setRuntimeMetrics(ms *metricSet) {
	trials := 0
	for _, st := range lp.ops {
		trials += st.trials
	}
	ms.set("runtime.gc_cpu_frac", lp.rt.gcCPU/(lp.rt.user+lp.rt.sys).Seconds())
	ms.set("runtime.sys_cpu_frac", lp.rt.sys.Seconds()/(lp.rt.user+lp.rt.sys).Seconds())
	ms.set("runtime.alloc_bytes_per_trial", lp.rt.allocBytes/float64(trials))
	ms.set("runtime.allocs_per_trial", lp.rt.allocObjects/float64(trials))
	traced := quantile(seconds(lp.tracedWall), 0.5)
	plain := quantile(seconds(lp.plainWall), 0.5)
	ms.set("trace.overhead_frac", traced/plain-1)
}

// runtimeDelta is a difference of Go runtime and rusage readings.
type runtimeDelta struct {
	gcCPU                    float64 // runtime/metrics estimate, seconds
	allocBytes, allocObjects float64
	user, sys                time.Duration
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	num := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	u, sy := cpuTime()
	return runtimeDelta{
		gcCPU:      num(s[0].Value),
		allocBytes: num(s[1].Value), allocObjects: num(s[2].Value),
		user: u, sys: sy,
	}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{
		gcCPU:      a.gcCPU - b.gcCPU,
		allocBytes: a.allocBytes - b.allocBytes, allocObjects: a.allocObjects - b.allocObjects,
		user: a.user - b.user, sys: a.sys - b.sys,
	}
}

func (a *runtimeDelta) add(b runtimeDelta) {
	a.gcCPU += b.gcCPU
	a.allocBytes += b.allocBytes
	a.allocObjects += b.allocObjects
	a.user += b.user
	a.sys += b.sys
}

// loopHTTPErrors counts the error responses the workload's own servers
// gave during the run (none for the direct path).
func loopHTTPErrors(ctx context.Context, w workload) (int64, error) {
	svc, ok := w.(*service)
	if !ok {
		return 0, nil
	}
	var n int64
	for _, s := range append([]*server{svc.dep.front}, svc.dep.workers...) {
		doc, err := scrapeMetrics(ctx, svc.hc, s.url)
		if err != nil {
			return 0, err
		}
		n += doc.httpErrors()
	}
	return n, nil
}
