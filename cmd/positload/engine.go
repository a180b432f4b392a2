package main

// The load engine: a QPS-paced inject fan-out plus submit-poll-fetch
// campaign loops, all over the hardened serve.Client, with latency
// folded into internal/telemetry's log₂ histograms and the error
// budget evaluated from the final tallies. Everything is driven by
// loadConfig so tests run the engine in-process against an httptest
// server.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	schemacheck "positres/internal/artifact"
	"positres/internal/atomicio"
	"positres/internal/chaos"
	"positres/internal/numfmt"
	"positres/internal/runner"
	"positres/internal/serve"
	"positres/internal/spec"
	"positres/internal/telemetry"
)

// artifactSchema tags the JSON artifact; bump only with a /v2.
const artifactSchema = "positres-load/v1"

// loadConfig parameterizes one load run.
type loadConfig struct {
	// Client is the (retry-configured) positserve client to load with.
	Client *serve.Client
	// Target is the base URL recorded in the artifact.
	Target string
	// Duration bounds the run (a cancelled context ends it earlier).
	Duration time.Duration
	// QPS is the aggregate target rate of /v1/inject requests.
	QPS float64
	// InjectWorkers is the number of concurrent inject requesters.
	InjectWorkers int
	// CampaignLoops is the number of concurrent campaign loops (0
	// disables campaign load).
	CampaignLoops int
	// Campaign is the spec each campaign loop submits repeatedly.
	Campaign spec.CampaignSpec
	// InjectFormats are the formats the inject load draws from.
	InjectFormats []string
	// Seed keys the per-worker PRNGs generating inject inputs.
	Seed uint64
	// MaxErrorRate is the error budget's failed-operation ceiling.
	MaxErrorRate float64
	// MaxP99 is the inject p99 ceiling (0 disables the check).
	MaxP99 time.Duration
	// CampaignOut, when set, receives each finished campaign's CSVs.
	CampaignOut string
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...interface{})
}

// loadStats is the engine's shared tally state.
type loadStats struct {
	injectReqs atomic.Int64
	injectErrs atomic.Int64
	submits    atomic.Int64 // campaign submit attempts
	completed  atomic.Int64 // campaigns that reached "complete"
	failed     atomic.Int64 // submit errors + terminal non-complete states
	injectLat  telemetry.Histogram
	campLat    telemetry.Histogram
}

// artifact is the positres-load/v1 JSON document.
type artifact struct {
	// Schema is always "positres-load/v1".
	Schema string `json:"schema"`
	// Target is the base URL that was loaded.
	Target string `json:"target"`
	// StartedAt and FinishedAt bound the run, RFC 3339 UTC.
	StartedAt string `json:"started_at"`
	// FinishedAt is when the run ended.
	FinishedAt string `json:"finished_at"`
	// DurationNS is the measured wall-clock run length.
	DurationNS int64 `json:"duration_ns"`
	// TargetQPS is the configured inject rate.
	TargetQPS float64 `json:"target_qps"`
	// Inject reports the /v1/inject side of the load.
	Inject endpointReport `json:"inject"`
	// Campaigns reports the /v1/campaigns side of the load.
	Campaigns campaignReport `json:"campaigns"`
	// Budget is the error-budget verdict.
	Budget budgetReport `json:"budget"`
	// Chaos carries the embedded proxy's fault tallies in -smoke runs.
	Chaos *chaos.StatsSnapshot `json:"chaos,omitempty"`
}

// endpointReport summarizes the inject load.
type endpointReport struct {
	// Requests counts issued inject requests (after client retries).
	Requests int64 `json:"requests"`
	// Errors counts inject requests that failed despite retries.
	Errors int64 `json:"errors"`
	// AchievedQPS is Requests over the measured duration.
	AchievedQPS float64 `json:"achieved_qps"`
	// P50NS, P95NS and P99NS are latency quantile estimates
	// (log₂-band upper edges, clamped to observed min/max).
	P50NS int64 `json:"p50_ns"`
	// P95NS is the 95th-percentile estimate.
	P95NS int64 `json:"p95_ns"`
	// P99NS is the 99th-percentile estimate.
	P99NS int64 `json:"p99_ns"`
	// Latency is the full log₂ histogram snapshot.
	Latency telemetry.HistogramSnapshot `json:"latency"`
}

// campaignReport summarizes the campaign loops.
type campaignReport struct {
	// Submitted counts campaign submit attempts.
	Submitted int64 `json:"submitted"`
	// Completed counts campaigns that reached "complete".
	Completed int64 `json:"completed"`
	// Failed counts submit errors and terminal non-complete states.
	Failed int64 `json:"failed"`
	// P99NS is the submit-to-fetch round-trip p99 estimate.
	P99NS int64 `json:"p99_ns"`
	// Latency is the round-trip log₂ histogram snapshot.
	Latency telemetry.HistogramSnapshot `json:"latency"`
}

// budgetReport is the error-budget verdict of the run.
type budgetReport struct {
	// MaxErrorRate is the configured failed-operation ceiling.
	MaxErrorRate float64 `json:"max_error_rate"`
	// MaxP99NS is the configured inject p99 ceiling (0 = unchecked).
	MaxP99NS int64 `json:"max_p99_ns"`
	// ErrorRate is the measured failed-operation fraction.
	ErrorRate float64 `json:"error_rate"`
	// P99NS is the measured inject p99.
	P99NS int64 `json:"p99_ns"`
	// Violations lists every breached assertion; empty means the
	// budget held (exit 0).
	Violations []string `json:"violations,omitempty"`
}

// runLoad drives the configured load until ctx or Duration expires
// and returns the evaluated artifact.
func runLoad(ctx context.Context, cfg loadConfig) (*artifact, error) {
	if cfg.InjectWorkers <= 0 {
		cfg.InjectWorkers = 1
	}
	if cfg.QPS <= 0 {
		return nil, fmt.Errorf("positload: qps must be positive")
	}
	widths := map[string]int{}
	for i, name := range cfg.InjectFormats {
		name = strings.TrimSpace(name)
		cfg.InjectFormats[i] = name
		codec, err := numfmt.Lookup(name)
		if err != nil {
			return nil, fmt.Errorf("positload: inject format: %w", err)
		}
		widths[name] = codec.Width()
	}

	start := time.Now()
	var cancel context.CancelFunc
	ctx, cancel = context.WithTimeout(ctx, cfg.Duration)
	defer cancel()

	var stats loadStats
	var wg sync.WaitGroup
	ticks := time.NewTicker(time.Duration(float64(time.Second) / cfg.QPS))
	defer ticks.Stop()
	for w := 0; w < cfg.InjectWorkers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			injectLoop(ctx, cfg, uint64(worker), widths, ticks.C, &stats)
		}(w)
	}
	for l := 0; l < cfg.CampaignLoops; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			campaignLoop(ctx, cfg, &stats)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	art := buildArtifact(cfg, &stats, start, elapsed)
	return art, nil
}

// injectLoop issues paced /v1/inject requests until ctx expires. All
// workers share one ticker channel, so the aggregate rate — not the
// per-worker rate — tracks QPS; a saturated fleet simply drops ticks,
// capping load instead of queueing an unbounded backlog.
func injectLoop(ctx context.Context, cfg loadConfig, worker uint64, widths map[string]int, ticks <-chan time.Time, stats *loadStats) {
	rng := rand.New(rand.NewPCG(cfg.Seed, worker))
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticks:
		}
		format := cfg.InjectFormats[rng.IntN(len(cfg.InjectFormats))]
		value := rng.NormFloat64() * 100
		bit := rng.IntN(widths[format])
		start := time.Now()
		_, err := cfg.Client.Inject(ctx, serve.InjectRequest{Format: format, Value: &value, Bit: &bit})
		stats.injectLat.Observe(time.Since(start))
		stats.injectReqs.Add(1)
		if err != nil && ctx.Err() == nil {
			stats.injectErrs.Add(1)
			if cfg.Logf != nil {
				cfg.Logf("inject error: %v", err)
			}
		}
	}
}

// submitAttempts bounds the harness-level campaign submit retry.
const submitAttempts = 5

// submitWithRetry retries campaign submission at the harness level.
// serve.Client refuses to retry a POST /v1/campaigns on 5xx or a
// transport error — a generic caller cannot know whether the job was
// created — but a load generator can: a duplicate campaign is just
// more load, which is the point.
func submitWithRetry(ctx context.Context, cfg loadConfig) (*serve.CampaignStatus, error) {
	var err error
	for attempt := 1; attempt <= submitAttempts; attempt++ {
		var st *serve.CampaignStatus
		st, err = cfg.Client.SubmitCampaign(ctx, &cfg.Campaign, false)
		if err == nil || ctx.Err() != nil {
			return st, err
		}
		select {
		case <-ctx.Done():
			return nil, err
		case <-time.After(runner.JitteredBackoff(50*time.Millisecond, attempt, "positload-submit")):
		}
	}
	return nil, err
}

// campaignLoop submits, polls and fetches campaigns back to back
// until ctx expires. A run cut off mid-campaign is abandoned without
// counting against the budget — the service did not fail, the clock
// ran out.
func campaignLoop(ctx context.Context, cfg loadConfig, stats *loadStats) {
	for ctx.Err() == nil {
		start := time.Now()
		stats.submits.Add(1)
		st, err := submitWithRetry(ctx, cfg)
		if err != nil {
			if ctx.Err() == nil {
				stats.failed.Add(1)
				if cfg.Logf != nil {
					cfg.Logf("campaign submit error: %v", err)
				}
			} else {
				stats.submits.Add(-1)
			}
			continue
		}
		final, ok := pollCampaign(ctx, cfg, st.ID)
		if !ok { // clock ran out mid-campaign
			stats.submits.Add(-1)
			return
		}
		if final.State != "complete" {
			stats.failed.Add(1)
			if cfg.Logf != nil {
				cfg.Logf("campaign %s finished %s: %s", final.ID, final.State, final.Error)
			}
			continue
		}
		if err := fetchResults(ctx, cfg, final); err != nil {
			if ctx.Err() == nil {
				stats.failed.Add(1)
				if cfg.Logf != nil {
					cfg.Logf("campaign %s fetch: %v", final.ID, err)
				}
			} else {
				stats.submits.Add(-1)
			}
			continue
		}
		stats.completed.Add(1)
		stats.campLat.Observe(time.Since(start))
	}
}

// pollCampaign waits for the campaign to reach a terminal state; ok
// is false when ctx expired first.
func pollCampaign(ctx context.Context, cfg loadConfig, id string) (*serve.CampaignStatus, bool) {
	t := time.NewTicker(150 * time.Millisecond)
	defer t.Stop()
	for {
		st, err := cfg.Client.CampaignStatus(ctx, id)
		if err == nil {
			switch st.State {
			case "queued", "running":
				// keep polling
			default:
				return st, true
			}
		} else if ctx.Err() != nil {
			return nil, false
		}
		select {
		case <-ctx.Done():
			return nil, false
		case <-t.C:
		}
	}
}

// fetchResults streams every published CSV — into CampaignOut when
// configured (atomically, under the standard field_format.csv names,
// for byte-comparison against a serial baseline), else to io.Discard
// so the response path is still exercised end to end.
func fetchResults(ctx context.Context, cfg loadConfig, st *serve.CampaignStatus) error {
	for _, ref := range st.Results {
		if cfg.CampaignOut == "" {
			if err := cfg.Client.CampaignResult(ctx, st.ID, ref.Field, ref.Format, io.Discard); err != nil {
				return err
			}
			continue
		}
		name := fmt.Sprintf("%s_%s.csv", strings.ReplaceAll(ref.Field, "/", "_"), ref.Format)
		err := atomicio.WriteFile(filepath.Join(cfg.CampaignOut, name), func(w io.Writer) error {
			return cfg.Client.CampaignResult(ctx, st.ID, ref.Field, ref.Format, w)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// buildArtifact folds the tallies into the schema-tagged document and
// evaluates the error budget.
func buildArtifact(cfg loadConfig, stats *loadStats, start time.Time, elapsed time.Duration) *artifact {
	injectSnap := stats.injectLat.Snapshot()
	campSnap := stats.campLat.Snapshot()
	art := &artifact{
		Schema:     artifactSchema,
		Target:     cfg.Target,
		StartedAt:  start.UTC().Format(time.RFC3339),
		FinishedAt: start.Add(elapsed).UTC().Format(time.RFC3339),
		DurationNS: int64(elapsed),
		TargetQPS:  cfg.QPS,
		Inject: endpointReport{
			Requests:    stats.injectReqs.Load(),
			Errors:      stats.injectErrs.Load(),
			AchievedQPS: float64(stats.injectReqs.Load()) / elapsed.Seconds(),
			P50NS:       injectSnap.Quantile(0.50),
			P95NS:       injectSnap.Quantile(0.95),
			P99NS:       injectSnap.Quantile(0.99),
			Latency:     injectSnap,
		},
		Campaigns: campaignReport{
			Submitted: stats.submits.Load(),
			Completed: stats.completed.Load(),
			Failed:    stats.failed.Load(),
			P99NS:     campSnap.Quantile(0.99),
			Latency:   campSnap,
		},
	}
	art.Budget = evalBudget(cfg, art)
	return art
}

// evalBudget applies the configured assertions to the measured run.
func evalBudget(cfg loadConfig, art *artifact) budgetReport {
	b := budgetReport{
		MaxErrorRate: cfg.MaxErrorRate,
		MaxP99NS:     int64(cfg.MaxP99),
		P99NS:        art.Inject.P99NS,
	}
	ops := art.Inject.Requests + art.Campaigns.Submitted
	errs := art.Inject.Errors + art.Campaigns.Failed
	if ops > 0 {
		b.ErrorRate = float64(errs) / float64(ops)
	}
	if ops == 0 {
		b.Violations = append(b.Violations, "no operations completed (target unreachable?)")
	}
	if b.ErrorRate > cfg.MaxErrorRate {
		b.Violations = append(b.Violations,
			fmt.Sprintf("error rate %.4f exceeds budget %.4f (%d/%d operations failed)",
				b.ErrorRate, cfg.MaxErrorRate, errs, ops))
	}
	if cfg.MaxP99 > 0 && art.Inject.P99NS > int64(cfg.MaxP99) {
		b.Violations = append(b.Violations,
			fmt.Sprintf("inject p99 %v exceeds ceiling %v",
				time.Duration(art.Inject.P99NS), cfg.MaxP99))
	}
	return b
}

// readArtifact parses a previously written positres-load/v1 document,
// refusing anything else via the shared schema check. It is the read
// half of the load-trajectory loop: `-baseline OLD.json` feeds the
// prior committed artifact (LOAD_PR10.json and successors) back
// through it for comparison.
func readArtifact(r io.Reader) (*artifact, error) {
	var a artifact
	if err := json.NewDecoder(r).Decode(&a); err != nil {
		return nil, fmt.Errorf("positload: decode artifact: %w", err)
	}
	if err := schemacheck.CheckSchema(a.Schema, artifactSchema); err != nil {
		return nil, fmt.Errorf("positload: %w", err)
	}
	return &a, nil
}

// compareBaseline prints an informational trajectory diff against a
// prior artifact. Load numbers are environment-sensitive, so this
// never turns a regression into an exit code; the budget flags stay
// the only automated gate (docs/PERF.md).
func (a *artifact) compareBaseline(w io.Writer, old *artifact) {
	fmt.Fprintf(w, "positload: baseline %s (%s, %v)\n", old.Target, old.FinishedAt,
		time.Duration(old.DurationNS).Round(time.Millisecond))
	ratio := func(oldNS, newNS int64) string {
		if oldNS <= 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.2fx", float64(newNS)/float64(oldNS))
	}
	fmt.Fprintf(w, "positload:   inject p50 %v -> %v (%s), p99 %v -> %v (%s)\n",
		time.Duration(old.Inject.P50NS).Round(time.Microsecond),
		time.Duration(a.Inject.P50NS).Round(time.Microsecond),
		ratio(old.Inject.P50NS, a.Inject.P50NS),
		time.Duration(old.Inject.P99NS).Round(time.Microsecond),
		time.Duration(a.Inject.P99NS).Round(time.Microsecond),
		ratio(old.Inject.P99NS, a.Inject.P99NS))
	fmt.Fprintf(w, "positload:   qps %.1f -> %.1f, error rate %.4f -> %.4f\n",
		old.Inject.AchievedQPS, a.Inject.AchievedQPS,
		old.Budget.ErrorRate, a.Budget.ErrorRate)
	fmt.Fprintf(w, "positload:   campaigns completed %d -> %d, round-trip p99 %v -> %v (%s)\n",
		old.Campaigns.Completed, a.Campaigns.Completed,
		time.Duration(old.Campaigns.P99NS).Round(time.Millisecond),
		time.Duration(a.Campaigns.P99NS).Round(time.Millisecond),
		ratio(old.Campaigns.P99NS, a.Campaigns.P99NS))
}

// write persists the artifact atomically.
func (a *artifact) write(path string) error {
	raw, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return fmt.Errorf("positload: artifact encode: %w", err)
	}
	if err := atomicio.WriteFileBytes(path, append(raw, '\n')); err != nil {
		return fmt.Errorf("positload: artifact: %w", err)
	}
	return nil
}

// print writes the human summary.
func (a *artifact) print(w io.Writer) {
	fmt.Fprintf(w, "positload: %s for %v\n", a.Target, time.Duration(a.DurationNS).Round(time.Millisecond))
	fmt.Fprintf(w, "positload: inject %d requests (%.1f qps, target %.1f), %d errors, p50 %v p95 %v p99 %v\n",
		a.Inject.Requests, a.Inject.AchievedQPS, a.TargetQPS, a.Inject.Errors,
		time.Duration(a.Inject.P50NS).Round(time.Microsecond),
		time.Duration(a.Inject.P95NS).Round(time.Microsecond),
		time.Duration(a.Inject.P99NS).Round(time.Microsecond))
	fmt.Fprintf(w, "positload: campaigns %d submitted, %d completed, %d failed, p99 %v\n",
		a.Campaigns.Submitted, a.Campaigns.Completed, a.Campaigns.Failed,
		time.Duration(a.Campaigns.P99NS).Round(time.Millisecond))
	if c := a.Chaos; c != nil {
		fmt.Fprintf(w, "positload: chaos injected %d latencies, %d resets, %d 5xx, %d truncations, %d corruptions over %d requests\n",
			c.Latencies, c.Resets, c.Synthetic5xx, c.Truncations, c.Corruptions, c.Requests)
	}
	if len(a.Budget.Violations) == 0 {
		fmt.Fprintf(w, "positload: BUDGET OK (error rate %.4f <= %.4f)\n", a.Budget.ErrorRate, a.Budget.MaxErrorRate)
		return
	}
	for _, v := range a.Budget.Violations {
		fmt.Fprintf(w, "positload: BUDGET VIOLATED: %s\n", v)
	}
}
