package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"positres/internal/core"
	"positres/internal/runner"
	"positres/internal/sdrbench"
	"positres/internal/serve"
	"positres/internal/store"
)

// opStats is what one timed op measured. wall is the op's share of
// the timed section; the output check runs after it, untimed.
type opStats struct {
	wall     time.Duration
	campaign time.Duration   // one matrix pass, or submit to complete
	csv      []time.Duration // one per (field, format)
	agg      []time.Duration
	cpu      time.Duration // user + sys over the op (getrusage)
	trials   int
}

// workload is one set-up instance of a workload.
type workload interface {
	// op runs one matrix op with the campaign seed, timed, and returns
	// the output check to run after the timed section.
	op(ctx context.Context, seed uint64) (opStats, func(context.Context) error, error)
	close() error
}

// workloads maps each workload to the cluster workers behind its
// service (-1: no service, the direct path). Every op runs the paper
// matrix; the workloads differ in the path the campaigns take.
// BENCHMARK.json and README.md say why each was chosen.
var workloads = map[string]int{
	"direct_matrix":   -1,
	"service_local":   0,
	"cluster_1worker": 1,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// setupWorkload builds one instance of the named workload under dir.
func setupWorkload(o options, dir string, sd *seeds, tr *tracer) (workload, error) {
	pairs, err := matrixPairs()
	if err != nil {
		return nil, err
	}
	workers := workloads[o.workload]
	if workers < 0 {
		return newDirect(o, pairs, sd.next(), tr), nil
	}
	dep, err := startDeployment(dir, workers, tr.wrap)
	if err != nil {
		return nil, err
	}
	return newService(o, pairs, dep, tr), nil
}

// direct is the in-memory path behind figures, positreport and
// positcampaign -data: core.Run per (field, format) over datasets
// generated once in set-up, then each result written as CSV and
// aggregated per bit — the two products a service fetch returns.
type direct struct {
	o     options
	pairs []pair
	data  map[string][]float64
	bufs  []bytes.Buffer
	tr    *tracer
}

func newDirect(o options, pairs []pair, dataSeed uint64, tr *tracer) *direct {
	w := &direct{o: o, pairs: pairs, data: map[string][]float64{}, bufs: make([]bytes.Buffer, len(pairs)), tr: tr}
	for _, p := range pairs {
		if _, ok := w.data[p.key()]; !ok {
			w.data[p.key()] = sdrbench.ToFloat64(p.field.Generate(o.n, dataSeed))
		}
	}
	return w
}

func (w *direct) op(ctx context.Context, seed uint64) (opStats, func(context.Context) error, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.TrialsPerBit = w.o.trialsPerBit
	st := opStats{csv: make([]time.Duration, len(w.pairs)), agg: make([]time.Duration, len(w.pairs))}
	results := make([]*core.Result, len(w.pairs))
	aggs := make([][]core.BitAgg, len(w.pairs))

	c0 := cpuTotal()
	t0 := time.Now()
	for i, p := range w.pairs {
		_, err := w.tr.timed("core.Run", func() error {
			var err error
			results[i], err = core.Run(ctx, cfg, p.codec, p.key(), w.data[p.key()])
			return err
		})
		if err != nil {
			return st, nil, err
		}
	}
	st.campaign = time.Since(t0)
	for i := range w.pairs {
		w.bufs[i].Reset()
		var err error
		st.csv[i], err = w.tr.timed("core.WriteTrialsCSV", func() error {
			return core.WriteTrialsCSV(&w.bufs[i], results[i].Trials)
		})
		if err != nil {
			return st, nil, err
		}
		st.agg[i], _ = w.tr.timed("core.AggregateByBit", func() error {
			aggs[i] = core.AggregateByBit(results[i].Trials)
			return nil
		})
		st.trials += len(results[i].Trials)
	}
	st.wall = time.Since(t0)
	st.cpu = cpuTotal() - c0

	check := func(ctx context.Context) error {
		for i, p := range w.pairs {
			want := p.codec.Width() * w.o.trialsPerBit
			if n := len(results[i].Trials); n != want {
				return fmt.Errorf("%s/%s: %d trials, want %d", p.key(), p.codec.Name(), n, want)
			}
			if got := aggTrials(aggs[i]); got != want {
				return fmt.Errorf("%s/%s: aggregate counts %d trials, want %d", p.key(), p.codec.Name(), got, want)
			}
			if err := matchReference(ctx, cfg, p, w.data[p.key()], w.bufs[i].Bytes()); err != nil {
				return err
			}
		}
		return nil
	}
	return st, check, nil
}

func (w *direct) close() error { return nil }

func aggTrials(aggs []core.BitAgg) int {
	n := 0
	for _, a := range aggs {
		n += a.Trials
	}
	return n
}

// matchReference checks one CSV against the engine's byte-identity
// contract for the same campaign.
func matchReference(ctx context.Context, cfg core.Config, p pair, data []float64, got []byte) error {
	want, err := referenceDigest(ctx, cfg, p, data)
	if err != nil {
		return fmt.Errorf("%s/%s reference: %w", p.key(), p.codec.Name(), err)
	}
	if sha256.Sum256(got) != want {
		return fmt.Errorf("%s/%s: CSV (%d bytes) differs from core.WriteTrialsCSV(core.RunRange(...))", p.key(), p.codec.Name(), len(got))
	}
	return nil
}

// service submits each op's matrix spec to a positserve deployment
// with ?wait=1, then fetches every result once as CSV and once as its
// positres-aggregate/v1 document, over one client connection.
type service struct {
	o      options
	pairs  []pair
	dep    *deployment
	client *serve.Client
	tport  *http.Transport
	hc     *http.Client // /metrics scrapes, on the same connection
	bufs   []bytes.Buffer
	tr     *tracer

	lastID    string // the most recent campaign id
	fallbacks int64  // coordinator wire fallbacks seen so far
}

func newService(o options, pairs []pair, dep *deployment, tr *tracer) *service {
	client, tport := newClient(dep.front.url)
	return &service{
		o: o, pairs: pairs, dep: dep, client: client, tport: tport,
		hc: &http.Client{Transport: tport, Timeout: time.Minute}, bufs: make([]bytes.Buffer, len(pairs)), tr: tr,
	}
}

func (w *service) op(ctx context.Context, seed uint64) (opStats, func(context.Context) error, error) {
	cs := matrixSpec(w.o, seed)
	st := opStats{csv: make([]time.Duration, len(w.pairs)), agg: make([]time.Duration, len(w.pairs))}
	docs := make([]*store.AggregateDoc, len(w.pairs))

	c0 := cpuTotal()
	t0 := time.Now()
	var status *serve.CampaignStatus
	_, err := w.tr.timed("client.submit", func() error {
		var err error
		status, err = w.client.SubmitCampaign(ctx, &cs, true)
		return err
	})
	st.campaign = time.Since(t0)
	if err != nil {
		return st, nil, err
	}
	w.lastID = status.ID
	if status.State != "complete" {
		return st, nil, fmt.Errorf("campaign %s finished %s: %s", status.ID, status.State, status.Error)
	}
	for i, p := range w.pairs {
		w.bufs[i].Reset()
		st.csv[i], err = w.tr.timed("client.fetch_csv", func() error {
			return w.client.CampaignResult(ctx, status.ID, p.key(), p.codec.Name(), &w.bufs[i])
		})
		if err != nil {
			return st, nil, err
		}
		st.agg[i], err = w.tr.timed("client.fetch_agg", func() error {
			var err error
			docs[i], err = w.client.FetchAggregate(ctx, status.ID, p.key(), p.codec.Name())
			return err
		})
		if err != nil {
			return st, nil, err
		}
		st.trials += p.codec.Width() * w.o.trialsPerBit
	}
	st.wall = time.Since(t0)
	st.cpu = cpuTotal() - c0

	check := func(ctx context.Context) error {
		defer w.dropJob(status.ID) // results are checked once; keep the disk flat
		cfg := core.ConfigFromSpec(&cs)
		data := map[string][]float64{}
		for i, p := range w.pairs {
			want := p.codec.Width() * w.o.trialsPerBit
			d := docs[i]
			if !d.Sealed || d.Trials != uint64(want) || d.Field != p.key() || d.Codec != p.codec.Name() {
				return fmt.Errorf("%s/%s: aggregate sealed=%v trials=%d field=%s codec=%s, want sealed %d trials",
					p.key(), p.codec.Name(), d.Sealed, d.Trials, d.Field, d.Codec, want)
			}
			if _, ok := data[p.key()]; !ok {
				data[p.key()] = sdrbench.ToFloat64(p.field.Generate(cs.N, cs.Seed))
			}
			if err := matchReference(ctx, cfg, p, data[p.key()], w.bufs[i].Bytes()); err != nil {
				return fmt.Errorf("campaign %s: %w", status.ID, err)
			}
		}
		if len(w.dep.workers) > 0 {
			doc, err := scrapeMetrics(ctx, w.hc, w.dep.front.url)
			if err != nil {
				return err
			}
			if n := doc.wireFallbacks(); n != w.fallbacks {
				w.fallbacks = n
				return fmt.Errorf("campaign %s: shard responses fell back from the binary frame to CSV (%d so far)", status.ID, n)
			}
		}
		return nil
	}
	return st, check, nil
}

// jobDir is where the front server keeps a campaign's state.
func (w *service) jobDir(id string) string {
	return filepath.Join(w.dep.front.dataDir, "jobs", id)
}

// shardDurations reads a finished campaign's per-shard compute times
// from its runner manifest.
func (w *service) shardDurations(id string) ([]time.Duration, error) {
	m, err := runner.ReadManifest(filepath.Join(w.jobDir(id), "state"))
	if err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("campaign %s has no manifest", id)
	}
	out := make([]time.Duration, 0, len(m.Shards))
	for _, s := range m.Shards {
		out = append(out, s.Duration())
	}
	return out, nil
}

// traceShards records one span per shard of the last campaign from its
// runner manifest, placed at start and as long as the shard's recorded
// compute time.
func (w *service) traceShards(start time.Time) error {
	shards, err := w.shardDurations(w.lastID)
	if err != nil {
		return err
	}
	for _, d := range shards {
		w.tr.record(0, 0, "runner.shard", start, start.Add(d), 0)
	}
	return nil
}

func (w *service) dropJob(id string) { _ = os.RemoveAll(w.jobDir(id)) }

func (w *service) close() error {
	err := w.dep.close()
	w.tport.CloseIdleConnections()
	return err
}
