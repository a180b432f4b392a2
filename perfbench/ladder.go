package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"positres/internal/core"
	"positres/internal/runner"
	"positres/internal/sdrbench"
	"positres/internal/spec"
	"positres/internal/stats"
	"positres/internal/store"
	"positres/internal/telemetry"
	"positres/internal/wire"
)

// The ladder replays one op of the paper matrix through the layers'
// public calls, one rung per layer. Rungs 1–4 are serial passes that
// each add one stage to the one below (generate; + summarize; + the
// kernel per shard; + the wire codec per shard); rung 5 runs the
// campaign through runner.Run in memory, rung 6 durably with the
// columnar store (and reads the results back), rung 7 through a
// single-node service and rung 8 through a coordinator with one
// worker. Each rung reports its wall and CPU time, its wall time over
// the rung below, the time of the layer it adds as measured by spans
// around that layer's calls, and the residual — over minus layer.
// Summed over the rungs, layer times plus the residual equal the top
// rung's wall time.
var ladderRungs = []string{
	"r1_sdrbench", "r2_stats", "r3_core", "r4_wire",
	"r5_runner", "r6_durable", "r7_service", "r8_cluster",
}

func ladderMetricDefs() []metricDef {
	var defs []metricDef
	for _, r := range ladderRungs {
		defs = append(defs,
			metricDef{"ladder." + r + ".wall_s", "s"},
			metricDef{"ladder." + r + ".cpu_s", "s"},
			metricDef{"ladder." + r + ".over_s", "s"},
		)
	}
	return defs
}

// rung is one step of the ladder.
type rung struct {
	Name      string  `json:"name"`
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	OverS     float64 `json:"over_s"`  // wall over the rung below
	LayerS    float64 `json:"layer_s"` // the added layer's time, from spans
	ResidualS float64 `json:"residual_s"`
}

// ladder is a measured ladder and the per-layer metrics it yields.
type ladder struct {
	rungs   []rung
	metrics *metricSet
}

// Sinks keep results alive so the timed calls cannot be dropped.
var (
	sink    stats.Summary
	docSink *store.AggregateDoc
)

// runLadder measures the ladder on a fresh service and cluster under
// dir. The whole ladder runs twice with the same spec; the first pass
// warms caches, connections and the servers, the second is reported.
func runLadder(ctx context.Context, o options, dir string, seed uint64, tr *tracer) (*ladder, error) {
	pairs, err := matrixPairs()
	if err != nil {
		return nil, err
	}
	svcDep, err := startDeployment(filepath.Join(dir, "service"), 0, tr.wrap)
	if err != nil {
		return nil, err
	}
	defer svcDep.close()
	clDep, err := startDeployment(filepath.Join(dir, "cluster"), 1, tr.wrap)
	if err != nil {
		return nil, err
	}
	defer clDep.close()
	svc := newService(o, pairs, svcDep, tr)
	defer svc.tport.CloseIdleConnections()
	cl := newService(o, pairs, clDep, tr)
	defer cl.tport.CloseIdleConnections()

	lm := &ladderMeasure{o: o, pairs: pairs, dir: dir, seed: seed, tr: tr, svc: svc, cl: cl}
	var lad *ladder
	for pass := 0; pass < 2; pass++ {
		tr.on.Store(pass == 1)
		lad, err = lm.pass(ctx, pass)
		if err != nil {
			break
		}
	}
	tr.on.Store(false)
	if err != nil {
		return nil, err
	}
	// Error responses and wire fallbacks across every ladder server,
	// both passes.
	var httpErrs, fallbacks int64
	for _, s := range []*server{svcDep.front, clDep.front, clDep.workers[0]} {
		doc, err := scrapeMetrics(ctx, svc.hc, s.url)
		if err != nil {
			return nil, err
		}
		httpErrs += doc.httpErrors()
		fallbacks += doc.wireFallbacks()
	}
	lad.metrics.set("serve.http_errors", float64(httpErrs))
	lad.metrics.set("serve.wire_fallbacks", float64(fallbacks))
	return lad, nil
}

// ladderMeasure holds what one ladder pass needs.
type ladderMeasure struct {
	o       options
	pairs   []pair
	dir     string
	seed    uint64
	tr      *tracer
	svc, cl *service
}

// measured is one timed rung body: wall and CPU time.
type measured struct{ wall, cpu time.Duration }

// measure runs f as ladder rung op (its spans share the op id) and
// times it.
func (lm *ladderMeasure) measure(op int, name string, f func() error) (measured, error) {
	root, start := lm.tr.beginOp(-int64(op), name)
	c0 := cpuTotal()
	err := f()
	m := measured{wall: time.Since(start), cpu: cpuTotal() - c0}
	lm.tr.record(root, 0, "ladder."+name, start, time.Now(), 0)
	return m, err
}

// pipelineStats are the stage totals of one serial pass.
type pipelineStats struct {
	gen, summ, kern, enc, dec time.Duration
	datasets, trials, frames  int
	frameBytes                int64
	data                      map[string][]float64
}

// pipeline runs stages 1..stages of the serial pass: generate every
// field, summarize per (field, format), run the kernel per shard with
// one worker, and encode and decode each shard's wire frame.
func (lm *ladderMeasure) pipeline(ctx context.Context, cs *spec.CampaignSpec, stages int) (pipelineStats, error) {
	tr := lm.tr
	ps := pipelineStats{data: map[string][]float64{}}
	for _, p := range lm.pairs {
		if _, ok := ps.data[p.key()]; ok {
			continue
		}
		d, _ := tr.timed("sdrbench.Generate", func() error {
			ps.data[p.key()] = sdrbench.ToFloat64(p.field.Generate(cs.N, cs.Seed))
			return nil
		})
		ps.gen += d
		ps.datasets++
	}
	if stages < 2 {
		return ps, nil
	}
	for _, p := range lm.pairs {
		d, _ := tr.timed("stats.Summarize", func() error {
			sink = stats.Summarize(ps.data[p.key()])
			return nil
		})
		ps.summ += d
	}
	if stages < 3 {
		return ps, nil
	}
	cfg := core.ConfigFromSpec(cs)
	cfg.Workers = 1
	var buf []core.Trial
	var frame []byte
	for _, p := range lm.pairs {
		for lo := 0; lo < p.codec.Width(); lo += cs.BitsPerShard {
			hi := min(lo+cs.BitsPerShard, p.codec.Width())
			var trials []core.Trial
			d, err := tr.timed("core.RunRangeInto", func() error {
				var err error
				trials, err = core.RunRangeInto(ctx, cfg, p.codec, p.key(), ps.data[p.key()], lo, hi, buf)
				return err
			})
			if err != nil {
				return ps, err
			}
			buf = trials
			ps.kern += d
			ps.trials += len(trials)
			if stages < 4 {
				continue
			}
			d, err = tr.timed("wire.AppendFrame", func() error {
				var err error
				frame, err = wire.AppendFrame(frame[:0], trials)
				return err
			})
			if err != nil {
				return ps, err
			}
			ps.enc += d
			ps.frames++
			ps.frameBytes += int64(len(frame))
			d, err = tr.timed("wire.DecodeFrame", func() error {
				got, _, err := wire.DecodeFrame(frame)
				if err == nil && len(got) != len(trials) {
					err = fmt.Errorf("frame decoded %d trials, want %d", len(got), len(trials))
				}
				return err
			})
			if err != nil {
				return ps, err
			}
			ps.dec += d
		}
	}
	return ps, nil
}

// timedSink wraps the store's campaign writer as the runner's shard
// sink, timing each append.
type timedSink struct {
	cw *store.CampaignWriter
	tr *tracer
	mu sync.Mutex
	d  time.Duration
}

func (s *timedSink) AppendShard(field, codec string, bitLo, bitHi int, trials []core.Trial) error {
	d, err := s.tr.timed("store.AppendShard", func() error {
		return s.cw.AppendShard(field, codec, bitLo, bitHi, trials)
	})
	s.mu.Lock()
	s.d += d
	s.mu.Unlock()
	return err
}

// pass measures every rung once.
func (lm *ladderMeasure) pass(ctx context.Context, pass int) (*ladder, error) {
	cs := matrixSpec(lm.o, lm.seed)
	if verr := cs.Validate(); verr != nil {
		return nil, verr
	}
	ms := newMetricSet(perLayer)
	var walls [8]measured
	var layers [8]time.Duration

	// Rungs 1–4: the serial pipeline, one stage more per rung.
	var ps [5]pipelineStats
	for k := 1; k <= 4; k++ {
		m, err := lm.measure(k, ladderRungs[k-1], func() error {
			var err error
			ps[k], err = lm.pipeline(ctx, &cs, k)
			return err
		})
		if err != nil {
			return nil, err
		}
		walls[k-1] = m
	}
	layers[0] = ps[1].gen
	layers[1] = ps[2].summ
	layers[2] = ps[3].kern
	layers[3] = ps[4].enc + ps[4].dec

	// core.Run per (field, format), serial, on the pass-4 datasets:
	// the kernel plus the summary and result assembly around it.
	runCfg := core.ConfigFromSpec(&cs)
	runCfg.Workers = 1
	var runTotal time.Duration
	if _, err := lm.measure(4, "core_run", func() error {
		for _, p := range lm.pairs {
			d, err := lm.tr.timed("core.Run", func() error {
				_, err := core.Run(ctx, runCfg, p.codec, p.key(), ps[4].data[p.key()])
				return err
			})
			if err != nil {
				return err
			}
			runTotal += d
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Rung 5: runner.Run in memory.
	m5 := telemetry.New()
	var err error
	walls[4], err = lm.measure(5, ladderRungs[4], func() error {
		return runCampaign(ctx, runner.Config{Spec: &cs, Metrics: m5})
	})
	if err != nil {
		return nil, err
	}
	layers[4] = walls[4].wall - walls[3].wall
	snap5 := m5.Snapshot()
	orchestration := walls[4].wall
	if snap5.Workers > 0 {
		orchestration -= time.Duration(snap5.WorkerBusyNS / snap5.Workers)
	}

	// The journal alone: runner.Run with a state directory, no store.
	journalDir := filepath.Join(lm.dir, fmt.Sprintf("journal%d", pass))
	mj := telemetry.New()
	jm, err := lm.measure(6, "journal_only", func() error {
		return runCampaign(ctx, runner.Config{Spec: &cs, Dir: journalDir, Metrics: mj})
	})
	if err != nil {
		return nil, err
	}
	journal := jm.wall - walls[4].wall
	journalBytes, journalRecords := dirBytes(journalDir, ".rec")

	// Rung 6: durable run into the columnar store, sealed, read back.
	stateDir := filepath.Join(lm.dir, fmt.Sprintf("state%d", pass))
	storeDir := filepath.Join(lm.dir, fmt.Sprintf("store%d", pass))
	if err := os.MkdirAll(storeDir, 0o755); err != nil {
		return nil, err
	}
	m6 := telemetry.New()
	var snap6 telemetry.Snapshot // taken as the run ends, for its utilization
	ts := &timedSink{cw: store.NewCampaignWriter(storeDir), tr: lm.tr}
	var seal, render, aggregate time.Duration
	walls[5], err = lm.measure(6, ladderRungs[5], func() error {
		err := runCampaign(ctx, runner.Config{Spec: &cs, Dir: stateDir, Sink: ts, Metrics: m6})
		snap6 = m6.Snapshot()
		if err != nil {
			return err
		}
		defer ts.cw.Abort()
		for _, p := range lm.pairs {
			d, err := lm.tr.timed("store.Seal", func() error { return ts.cw.Seal(p.key(), p.codec.Name()) })
			if err != nil {
				return err
			}
			seal += d
		}
		var out bytes.Buffer
		for _, p := range lm.pairs {
			rd, err := store.Open(filepath.Join(storeDir, store.FileName(p.key(), p.codec.Name())))
			if err != nil {
				return err
			}
			out.Reset()
			d, err := lm.tr.timed("store.RenderCSV", func() error { return rd.RenderCSV(&out) })
			render += d
			if err == nil {
				d, _ = lm.tr.timed("store.Doc", func() error {
					docSink = rd.Doc()
					return nil
				})
				aggregate += d
			}
			if cerr := rd.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	layers[5] = journal + ts.d + seal + render + aggregate
	storeBytes, _ := dirBytes(storeDir, store.Ext)
	man, err := runner.ReadManifest(stateDir)
	if err != nil || man == nil {
		return nil, fmt.Errorf("rung 6 manifest: %v", err)
	}
	var shardMS []float64
	for _, s := range man.Shards {
		shardMS = append(shardMS, 1e3*s.Duration().Seconds())
	}

	// Rungs 7 and 8: one op through the service and the cluster.
	walls[6], err = lm.measure(7, ladderRungs[6], func() error {
		_, _, err := lm.svc.op(ctx, cs.Seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	layers[6] = walls[6].wall - walls[5].wall
	spansBefore := len(lm.tr.snapshot())
	walls[7], err = lm.measure(8, ladderRungs[7], func() error {
		_, _, err := lm.cl.op(ctx, cs.Seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	layers[7] = walls[7].wall - walls[6].wall
	var shardReqs int
	var handler time.Duration
	var respBytes int64
	for _, s := range lm.tr.snapshot()[spansBefore:] {
		if s.Name == "worker.shard" {
			shardReqs++
			handler += s.dur()
			respBytes += s.Bytes
		}
	}
	coordShards, err := lm.cl.shardDurations(lm.cl.lastID)
	if err != nil {
		return nil, err
	}
	lm.svc.dropJob(lm.svc.lastID)
	lm.cl.dropJob(lm.cl.lastID)

	// Assemble the rungs and the per-layer metrics.
	lad := &ladder{metrics: ms}
	var residual float64
	for k := range walls {
		over := walls[k].wall
		if k > 0 {
			over -= walls[k-1].wall
		}
		r := rung{
			Name: ladderRungs[k], WallS: walls[k].wall.Seconds(), CPUS: walls[k].cpu.Seconds(),
			OverS: over.Seconds(), LayerS: layers[k].Seconds(), ResidualS: (over - layers[k]).Seconds(),
		}
		residual += r.ResidualS
		lad.rungs = append(lad.rungs, r)
		ms.set("ladder."+r.Name+".wall_s", r.WallS)
		ms.set("ladder."+r.Name+".cpu_s", r.CPUS)
		ms.set("ladder."+r.Name+".over_s", r.OverS)
	}
	ms.set("trace.residual_s", residual)

	ms.set("sdrbench.datasets", float64(ps[1].datasets))
	ms.set("sdrbench.generate_s", ps[1].gen.Seconds())
	ms.set("sdrbench.generate_ms", 1e3*ps[1].gen.Seconds()/float64(ps[1].datasets))
	ms.set("stats.summarize_s", ps[2].summ.Seconds())
	ms.set("stats.summarize_ms", 1e3*ps[2].summ.Seconds()/float64(len(lm.pairs)))
	ms.set("core.trials", float64(ps[3].trials))
	ms.set("core.kernel_s", ps[3].kern.Seconds())
	ms.set("core.kernel_ns_per_trial", float64(ps[3].kern.Nanoseconds())/float64(ps[3].trials))
	ms.set("core.run_s", runTotal.Seconds())
	ms.set("core.run_other_s", (runTotal - ps[3].kern - ps[2].summ).Seconds())
	ms.set("wire.frames", float64(ps[4].frames))
	ms.set("wire.frame_bytes", float64(ps[4].frameBytes))
	ms.set("wire.encode_s", ps[4].enc.Seconds())
	ms.set("wire.decode_s", ps[4].dec.Seconds())

	ms.set("serve.shard_requests", float64(shardReqs))
	ms.set("serve.shard_handler_s", handler.Seconds())
	ms.set("serve.shard_hop_s", (sum(coordShards) - handler).Seconds())
	ms.set("serve.response_bytes", float64(respBytes))
	ms.set("serve.service_s", layers[6].Seconds())

	ms.set("runner.journal_s", journal.Seconds())
	ms.set("runner.journal_bytes", float64(journalBytes))
	ms.set("runner.journal_records", float64(journalRecords))
	ms.set("store.append_s", ts.d.Seconds())
	ms.set("store.seal_s", seal.Seconds())
	ms.set("store.bytes", float64(storeBytes))
	ms.set("store.render_csv_ms", 1e3*render.Seconds()/float64(len(lm.pairs)))
	ms.set("store.aggregate_ms", 1e3*aggregate.Seconds()/float64(len(lm.pairs)))
	ms.set("runner.shards", float64(len(man.Shards)))
	ms.set("runner.shard_p50_ms", quantile(shardMS, 0.5))
	ms.set("runner.shard_p90_ms", quantile(shardMS, 0.9))
	var retries, failed int64
	for _, m := range []*telemetry.Metrics{m5, mj, m6, lm.svc.dep.front.metrics, lm.cl.dep.front.metrics} {
		snap := m.Snapshot()
		retries += snap.Retries
		failed += snap.ShardsFailed
	}
	ms.set("runner.retries", float64(retries))
	ms.set("runner.failed_shards", float64(failed))
	ms.set("runner.worker_util", snap6.WorkerUtilization)
	ms.set("runner.orchestration_s", orchestration.Seconds())
	return lad, nil
}

// runCampaign runs a runner campaign and fails unless it completed.
func runCampaign(ctx context.Context, cfg runner.Config) error {
	rep, err := runner.Run(ctx, cfg)
	if err != nil {
		return err
	}
	if !rep.Complete() {
		for _, s := range rep.Shards {
			if s.Error != "" {
				return fmt.Errorf("runner campaign finished %s: shard %s: %s", rep.Outcome(), s.ID(), s.Error)
			}
		}
		return fmt.Errorf("runner campaign finished %s", rep.Outcome())
	}
	return nil
}

// printLadder writes the ladder table before the result line.
func printLadder(w io.Writer, rungs []rung, tracePath string) {
	fmt.Fprintf(w, "%-12s %10s %10s %10s %10s %10s\n", "rung", "wall_s", "cpu_s", "over_s", "layer_s", "residual_s")
	for _, r := range rungs {
		fmt.Fprintf(w, "%-12s %10.4f %10.4f %10.4f %10.4f %10.4f\n", r.Name, r.WallS, r.CPUS, r.OverS, r.LayerS, r.ResidualS)
	}
	fmt.Fprintln(w, "trace:", tracePath)
}
