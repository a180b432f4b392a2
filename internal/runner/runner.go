// Package runner is the durable campaign orchestration layer: it
// expands the canonical spec.CampaignSpec into a (field, codec)
// matrix, shards it into bit-range work units, appends every completed
// shard to its pair's columnar store as one fsynced, CRC-guarded block
// (internal/store), and after a crash, SIGINT or node preemption
// keeps the verified blocks and runs only the missing shards. Because
// internal/core draws every random choice from a PRNG stream keyed by
// (seed, field, codec, bit, trial), a resumed campaign is
// bit-identical to an uninterrupted one — the on-disk counterpart of
// the checkpoint/restart protection scheme the paper cites (refs
// [37], [23]), applied to the experiment harness itself.
//
// Robustness properties, each pinned by a test in runner_test.go:
//
//   - cancellation: ctx cancellation (e.g. from signal.NotifyContext)
//     drains the shard pool; completed shards stay in the pending
//     stores, in-flight shards are discarded, and the manifest records
//     "cancelled";
//   - watchdog: a per-shard timeout abandons a stuck attempt and
//     retries it;
//   - bounded retry: transient shard failures back off exponentially
//     up to the spec's retry budget; a shard that exhausts it is
//     recorded as failed and the campaign completes the rest (graceful
//     degradation to a "partial" outcome instead of a crash).
//
// The same watchdog/retry/backoff machinery drives distributed runs:
// positserve's coordinator supplies Config.Execute to ship each shard
// to a remote worker, so a dead or slow worker is just a failed
// attempt — backed off, retried, and reassigned like any local fault.
package runner

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"positres/internal/core"
	"positres/internal/numfmt"
	"positres/internal/sdrbench"
	"positres/internal/spec"
	"positres/internal/store"
	"positres/internal/telemetry"
)

// Config parameterizes a durable campaign run. The campaign itself —
// what to compute — lives entirely in Spec; the remaining fields
// control where state lives and how execution is scheduled, retried
// and observed.
type Config struct {
	// Spec is the canonical campaign description. Required; Run
	// validates it (applying the documented defaults in place) and
	// expands its Fields × Formats cross product via SpecsOf.
	Spec *spec.CampaignSpec
	// Dir is the state directory holding manifest.json and one store
	// per (field, codec) pair: store.FileName(field, codec) plus
	// ".pending" while the pair runs, sealed to the bare name once
	// every shard of the pair is durable. Empty disables durability
	// (no store, no resume) while keeping cancellation, watchdog and
	// retry semantics.
	Dir string
	// Resume continues a campaign found in Dir instead of refusing to
	// touch it. Each store keeps its verified blocks and only missing
	// shards run. Resuming an empty Dir is a fresh start.
	Resume bool
	// Workers bounds concurrent shards; 0 means GOMAXPROCS.
	Workers int
	// RetryBaseDelay seeds the exponential backoff between attempts
	// (delay = Backoff(base, attempt), capped at 30s); 0 means 50ms.
	RetryBaseDelay time.Duration
	// Execute, when non-nil, replaces the local shard computation:
	// each attempt calls it instead of core.RunRange, under the same
	// watchdog, retry and durability machinery. positserve's
	// coordinator uses it to dispatch shards to remote workers; the
	// trials it returns must be bit-identical to a local computation
	// (the PRNG keying makes that hold for any faithful executor). A
	// result whose shape fails Shard.CheckTrials fails the attempt,
	// which is then retried like any other attempt error.
	Execute func(ctx context.Context, sh Shard) ([]core.Trial, error)
	// FaultHook, when non-nil, runs at the start of every shard
	// attempt; a non-nil return fails that attempt. It exists to
	// inject transient and permanent faults in tests.
	FaultHook func(sh Shard, attempt int) error
	// Sleep, when non-nil, replaces the backoff wait (tests stub it to
	// avoid real delays). It must honor ctx cancellation.
	Sleep func(ctx context.Context, d time.Duration) error
	// OnShardDone, when non-nil, observes every shard outcome as it
	// happens (progress reporting, crash injection in the e2e test).
	// It is called serially.
	OnShardDone func(st ShardStatus)
	// Sink, when non-nil, receives every completed shard's trials —
	// fresh and resumed alike — as the campaign runs, and the Report's
	// Results carry Trials == nil (identity, N and Elapsed stay
	// populated). This is how campaign-scale runs stay in bounded
	// memory: with Dir set and Sink: Discard the trials live only in
	// the stores. Appends happen serially, after the shard is durable
	// in Dir's store, so a sink failure costs the shard, not the
	// campaign — the shard is reported failed and a Resume run
	// delivers it again. A store.CampaignWriter satisfies this
	// interface.
	Sink ShardSink
	// Metrics, when non-nil, receives shard lifecycle counts, the
	// shard latency histogram, retry/backoff tallies and worker busy
	// time as the run progresses; it is also propagated to the core
	// engine so injection counts land in the same set. Purely
	// observational — never part of campaign identity.
	Metrics *telemetry.Metrics

	// Derived from Spec by withDefaults; unexported so the spec stays
	// the single source of truth.
	campaign     core.Config
	bitsPerShard int
	shardTimeout time.Duration
	maxRetries   int
}

// withDefaults derives the execution parameters from the (already
// validated) spec and fills scheduling defaults.
func (cfg *Config) withDefaults() Config {
	c := *cfg
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.RetryBaseDelay <= 0 {
		c.RetryBaseDelay = 50 * time.Millisecond
	}
	c.campaign = core.ConfigFromSpec(c.Spec)
	// Shards are the unit of parallelism; the engine pool inside one
	// shard stays serial.
	c.campaign.Workers = 1
	c.campaign.Metrics = c.Metrics
	c.bitsPerShard = c.Spec.BitsPerShard
	c.shardTimeout = c.Spec.ShardTimeoutDuration()
	c.maxRetries = c.Spec.MaxRetriesValue()
	c.Metrics.SetWorkers(c.Workers)
	return c
}

// sleep waits for d or until ctx is cancelled.
func (cfg *Config) sleep(ctx context.Context, d time.Duration) error {
	if cfg.Sleep != nil {
		return cfg.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ShardSink consumes completed shards' trials as a campaign runs.
// AppendShard is called serially, once per completed shard, with the
// shard's half-open bit range; every trial carries the (field, codec)
// identity and a bit within [bitLo, bitHi). An error fails that shard
// (not the campaign); with Config.Dir set the shard is already in its
// store, so a Resume run delivers it again.
type ShardSink interface {
	AppendShard(field, codec string, bitLo, bitHi int, trials []core.Trial) error
}

// Discard is a ShardSink that accepts and drops every shard. A
// campaign run with Config.Dir set and Sink: Discard keeps its trials
// only in the stores under Dir, so Report.Results carry no slabs and
// memory stays bounded by the shards in flight — how positserve and
// positcampaign -out run.
var Discard ShardSink = discard{}

type discard struct{}

func (discard) AppendShard(string, string, int, int, []core.Trial) error { return nil }

// SpecsOf expands a validated campaign spec into its (field, codec)
// matrix: the Fields × Formats cross product in declaration order,
// with format names canonicalized through the registry. This is the
// one expansion used by the runner, positserve and positcampaign, so
// shard plans agree everywhere.
func SpecsOf(cs *spec.CampaignSpec) []Spec {
	var out []Spec
	for _, f := range cs.Fields {
		for _, name := range cs.Formats {
			codec, err := numfmt.Lookup(name)
			if err != nil {
				continue // impossible after Validate; skip rather than panic
			}
			out = append(out, Spec{Field: f, Codec: codec.Name(), N: cs.N, Seed: cs.Seed})
		}
	}
	return out
}

// Report is the outcome of a durable campaign run.
type Report struct {
	// Specs is the expanded (field, codec) matrix, SpecsOf(cfg.Spec).
	Specs []Spec
	// Results is index-aligned with Specs. A spec whose shards all
	// completed (freshly or from its store) gets an assembled
	// *core.Result with trials in bit order; a spec with failed or
	// skipped shards gets nil. When Config.Sink is set the trials
	// streamed out as the campaign ran, so Result.Trials is nil and
	// the sink (typically a store) holds the rows.
	Results []*core.Result
	// Shards lists every shard outcome in deterministic (spec, bit)
	// order.
	Shards []ShardStatus
	// Completed counts shards computed and made durable this run.
	Completed int
	// Resumed counts shards recovered from a prior run's stores.
	Resumed int
	// Failed counts shards that exhausted their retry budget.
	Failed int
	// Skipped counts shards that never ran (campaign cancelled first).
	Skipped int
	// Cancelled reports that the run was interrupted; completed work
	// is durable and a later Resume run picks up the remainder.
	Cancelled bool
	// Elapsed is this run's wall-clock time (store recovery included).
	Elapsed time.Duration
}

// Complete reports a fully successful campaign.
func (r *Report) Complete() bool { return !r.Cancelled && r.Failed == 0 && r.Skipped == 0 }

// Partial reports a finished campaign with failed shards.
func (r *Report) Partial() bool { return !r.Cancelled && r.Failed > 0 }

// Campaign is a durable campaign opened by Open: the validated shard
// plan, the state directory and, when Config.Dir is set, one store per
// (field, codec) pair with the verified shards of any previous run
// already recovered. Run executes the shards still missing; Snapshot
// may be called concurrently with it.
type Campaign struct {
	cfg    Config // defaults applied
	start  time.Time
	specs  []Spec
	codecs []numfmt.Codec
	fields []sdrbench.Field
	shards []Shard
	slots  []slot // index-aligned with shards
	st     *state
}

// slot is one shard's progress.
type slot struct {
	status ShardStatus
	trials []core.Trial
	sunk   bool // trials delivered to cfg.Sink; the slab is released
}

// Open validates cfg, checks the state directory against it, and opens
// the campaign's stores. On a resume every store keeps its verified
// blocks (store.Resume): their shards are marked ShardResumed, their
// trials go to the Sink or, with no Sink, into the Report's Results,
// and they are not recomputed. Fatal setup problems (invalid spec,
// incompatible state directory, unwritable or unreadable stores)
// return an error. The caller must then call Run exactly once; it
// releases the stores.
func Open(cfg Config) (*Campaign, error) {
	start := time.Now()
	if cfg.Spec == nil {
		return nil, fmt.Errorf("runner: Config.Spec is required")
	}
	if verr := cfg.Spec.Validate(); verr != nil {
		return nil, fmt.Errorf("runner: invalid campaign spec: %w", verr)
	}
	c := &Campaign{cfg: cfg.withDefaults(), start: start}
	c.specs = SpecsOf(c.cfg.Spec)
	if len(c.specs) == 0 {
		return nil, fmt.Errorf("runner: campaign spec expands to no (field, format) pairs")
	}

	// Resolve every spec against the registries up front: a typo must
	// fail before any state is touched.
	c.codecs = make([]numfmt.Codec, len(c.specs))
	c.fields = make([]sdrbench.Field, len(c.specs))
	// Store files are keyed on Field+Codec, so two specs sharing that
	// pair would collide in the state directory.
	seen := map[string]bool{}
	for i, sp := range c.specs {
		f, err := sdrbench.Lookup(sp.Field)
		if err != nil {
			return nil, fmt.Errorf("runner: spec %d: %w", i, err)
		}
		cd, err := numfmt.Lookup(sp.Codec)
		if err != nil {
			return nil, fmt.Errorf("runner: spec %d: %w", i, err)
		}
		if sp.N <= 0 {
			return nil, fmt.Errorf("runner: spec %d (%s): non-positive N", i, sp.Key())
		}
		if seen[sp.Key()] {
			return nil, fmt.Errorf("runner: duplicate spec %s", sp.Key())
		}
		seen[sp.Key()] = true
		c.fields[i], c.codecs[i] = f, cd
		c.shards = append(c.shards, shardsFor(sp, cd.Width(), c.cfg.bitsPerShard)...)
	}
	c.slots = make([]slot, len(c.shards))
	index := make(map[Shard]int, len(c.shards))
	for i, sh := range c.shards {
		c.slots[i].status = ShardStatus{Shard: sh, State: ShardSkipped}
		index[sh] = i
	}

	var err error
	c.st, err = openState(&c.cfg, paramsOf(c.cfg.campaign), c.specs)
	if err != nil {
		return nil, err
	}
	// keep accepts a recovered block only if it is exactly one planned
	// shard with the planned row count; the store itself rejects
	// duplicates.
	keep := func(sp Spec, bitLo, bitHi int, trials []core.Trial) bool {
		i, ok := index[Shard{Spec: sp, BitLo: bitLo, BitHi: bitHi}]
		if !ok || len(trials) != (bitHi-bitLo)*c.cfg.campaign.TrialsPerBit {
			return false
		}
		c.resumed(i, trials)
		return true
	}
	if err := c.st.openStores(c.specs, keep); err != nil {
		return nil, err
	}
	return c, nil
}

// resumed records a shard recovered from its store: not recomputed,
// so it reports zero attempts and duration.
func (c *Campaign) resumed(i int, trials []core.Trial) {
	s := &c.slots[i]
	sh := c.shards[i]
	s.status.State = ShardResumed
	if c.cfg.Sink == nil {
		s.trials = trials
	} else if err := c.cfg.Sink.AppendShard(sh.Field, sh.Codec, sh.BitLo, sh.BitHi, trials); err != nil {
		s.status.State = ShardFailed
		s.status.Error = fmt.Sprintf("sink: %v", err)
	} else {
		s.sunk = true
	}
	// Attempts = 1: the retries happened in the previous run and were
	// counted by that run's metrics.
	c.cfg.Metrics.ObserveShard(s.status.State, 0, 1)
}

// Snapshot returns one live aggregate document per store, in spec
// order — the mid-campaign view positserve's /metrics serves. It is
// O(specs×bits) and touches no trial; nil when Config.Dir is empty.
func (c *Campaign) Snapshot() []*store.AggregateDoc { return c.st.snapshot() }

// Run executes the campaign described by cfg.Spec durably: Open
// followed by Campaign.Run.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	c, err := Open(cfg)
	if err != nil {
		return nil, err
	}
	return c.Run(ctx)
}

// Run computes every shard Open did not recover. Each completed shard
// is appended to its pair's store — one fsynced block — before it is
// reported done. Shard-level failures and cancellation are reported
// in the Report, so one bad shard cannot take down the campaign; an
// error return means the state directory itself failed. On return
// the stores of complete specs are sealed (unless the run was
// cancelled) and the rest stay pending for a Resume run.
func (c *Campaign) Run(ctx context.Context) (*Report, error) {
	defer c.st.closeStores() // after finish sealed what it could
	cfg, specs, shards, slots := &c.cfg, c.specs, c.shards, c.slots
	statuses := make([]ShardStatus, len(slots))
	for i := range slots {
		statuses[i] = slots[i].status
	}
	if err := c.st.begin(statuses); err != nil {
		return nil, err
	}

	// Shard worker pool. Slots are written by index (disjoint); the
	// mutex serializes sink delivery and the OnShardDone callback.
	// Locally computed shards of one spec share one dataset, and the
	// field-major shard order keeps it resident across the spec's
	// codecs too.
	var cache sdrbench.DatasetCache
	var mu sync.Mutex
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if ctx.Err() != nil {
					continue // cancelled: drain remaining shards without working
				}
				busyStart := time.Now()
				sh := shards[i]
				si := specIndex(specs, sh.Spec)
				trials, status := runShard(ctx, cfg, &cache, c.fields[si], c.codecs[si], sh)
				if status.State == ShardDone {
					if aerr := c.st.append(si, sh, trials); aerr != nil {
						// A shard whose durability write failed is a
						// failed shard: reporting it done would let a
						// resume silently lose it.
						status.State = ShardFailed
						status.Error = aerr.Error()
						trials = nil
					}
				}
				slots[i].status = status
				slots[i].trials = trials
				cfg.Metrics.AddWorkerBusy(time.Since(busyStart))
				mu.Lock()
				if cfg.Sink != nil && slots[i].status.State == ShardDone {
					// The store already holds the shard, so a sink
					// failure only fails it here and a Resume run
					// delivers it again.
					if serr := cfg.Sink.AppendShard(sh.Field, sh.Codec, sh.BitLo, sh.BitHi, slots[i].trials); serr != nil {
						slots[i].status.State = ShardFailed
						slots[i].status.Error = fmt.Sprintf("sink: %v", serr)
					} else {
						slots[i].sunk = true
					}
					slots[i].trials = nil // the slab is the sink's problem now
				}
				cfg.Metrics.ObserveShard(slots[i].status.State,
					slots[i].status.Duration(), slots[i].status.Attempts)
				if cfg.OnShardDone != nil {
					cfg.OnShardDone(slots[i].status)
				}
				mu.Unlock()
			}
		}()
	}
feed:
	for i := range shards {
		if slots[i].status.State == ShardResumed {
			continue // already durable in the store
		}
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()

	rep := &Report{
		Specs:     specs,
		Results:   make([]*core.Result, len(specs)),
		Cancelled: ctx.Err() != nil,
		Elapsed:   time.Since(c.start),
	}
	for _, s := range slots {
		rep.Shards = append(rep.Shards, s.status)
		switch s.status.State {
		case ShardDone:
			rep.Completed++
		case ShardResumed:
			rep.Resumed++
		case ShardFailed:
			rep.Failed++
		default:
			rep.Skipped++
		}
	}

	// Assemble per-spec results from shard trials, in bit order. With a
	// Sink the trials already streamed out shard by shard, so the
	// Result keeps identity and timing but carries no slab.
	for si, sp := range specs {
		var parts []slot
		complete := true
		for i, sh := range shards {
			if sh.Spec != sp {
				continue
			}
			if slots[i].trials == nil && !slots[i].sunk {
				complete = false
				break
			}
			parts = append(parts, slots[i])
		}
		if !complete || len(parts) == 0 {
			continue
		}
		sort.Slice(parts, func(a, b int) bool { return parts[a].status.BitLo < parts[b].status.BitLo })
		var trials []core.Trial
		if cfg.Sink == nil {
			total := 0
			for _, p := range parts {
				total += len(p.trials)
			}
			trials = make([]core.Trial, 0, total) // one exact allocation, not append-doubling
		}
		var elapsed time.Duration
		for _, p := range parts {
			if cfg.Sink == nil {
				trials = append(trials, p.trials...)
			}
			elapsed += p.status.Duration()
		}
		rep.Results[si] = &core.Result{
			Field:   sp.Field,
			Codec:   sp.Codec,
			N:       sp.N,
			Trials:  trials,
			Elapsed: elapsed,
		}
	}

	if err := c.st.finish(rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// specIndex finds the spec's position; specs are few, linear scan is
// fine.
func specIndex(specs []Spec, sp Spec) int {
	for i := range specs {
		if specs[i] == sp {
			return i
		}
	}
	return -1
}

// runShard executes one shard with watchdog and bounded retry. For
// local computation it holds the shard's dataset from cache and
// allocates the shard's trial buffer once, reusing it across retry
// attempts (core.RunRangeInto fills it in place) — unless an attempt
// was abandoned by the watchdog, in which case the orphaned goroutine
// may still be writing into the buffer and the next attempt must
// start from a fresh one. With cfg.Execute set the executor brings
// its own data, so no dataset is acquired.
func runShard(ctx context.Context, cfg *Config, cache *sdrbench.DatasetCache, f sdrbench.Field, codec numfmt.Codec, sh Shard) ([]core.Trial, ShardStatus) {
	st := ShardStatus{Shard: sh, State: ShardFailed}
	start := time.Now()
	var lastErr error
	var data []float64
	var buf []core.Trial
	if cfg.Execute == nil {
		ds := cache.Acquire(f, sh.N, sh.Seed)
		defer cache.Release(ds)
		data = ds.Data
		buf = make([]core.Trial, (sh.BitHi-sh.BitLo)*cfg.campaign.TrialsPerBit)
	}
	for attempt := 1; attempt <= cfg.maxRetries+1; attempt++ {
		st.Attempts = attempt
		if attempt > 1 {
			wait := Backoff(cfg.RetryBaseDelay, attempt-1)
			cfg.Metrics.ObserveBackoff(wait)
			if err := cfg.sleep(ctx, wait); err != nil {
				st.State = ShardSkipped
				st.Error = err.Error()
				return nil, st
			}
		}
		trials, abandoned, err := attemptShard(ctx, cfg, codec, sh, data, attempt, buf)
		if err == nil {
			st.State = ShardDone
			st.Error = ""
			st.DurationNS = int64(time.Since(start))
			return trials, st
		}
		if abandoned {
			buf = nil // still owned by the abandoned attempt's goroutine
		}
		if ctx.Err() != nil {
			// The campaign itself is shutting down — not a shard fault.
			st.State = ShardSkipped
			st.Error = err.Error()
			return nil, st
		}
		lastErr = err
	}
	st.Error = fmt.Sprintf("%v (after %d attempts)", lastErr, st.Attempts)
	return nil, st
}

// Backoff computes the exponential retry delay base << (attempt-1),
// capped at 30s. It is exported because positserve's coordinator
// reuses the same schedule to cool down workers that failed a shard
// or a heartbeat.
func Backoff(base time.Duration, attempt int) time.Duration {
	const limit = 30 * time.Second
	d := base
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= limit {
			return limit
		}
	}
	return d
}

// JitteredBackoff is Backoff with a bounded, deterministic jitter: the
// delay is scaled by a factor in [0.75, 1.25) derived from an FNV-1a
// hash of (key, attempt). The coordinator's dispatcher uses it for
// worker cooldowns so a fleet of workers failed by the same event
// (one dead peer, one chaos burst) does not re-dispatch in lockstep —
// the thundering-herd guard. Because the factor is a pure function of
// its inputs, a replayed run waits the same amount at every step, and
// timing never feeds campaign results, so TestDistributedEquivalence
// stays byte-identical.
func JitteredBackoff(base time.Duration, attempt int, key string) time.Duration {
	d := Backoff(base, attempt)
	h := fnv.New64a()
	_, _ = io.WriteString(h, key)
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(attempt))
	_, _ = h.Write(buf[:])
	// Map the hash to [0.75, 1.25): three quarters plus a half-unit
	// fraction. 1<<53 keeps the conversion exact in float64.
	frac := float64(h.Sum64()>>11) / float64(uint64(1)<<53)
	return time.Duration(float64(d) * (0.75 + frac/2))
}

// attemptShard runs one attempt under the watchdog. The attempt body
// executes in its own goroutine; if the watchdog (or the campaign
// context) fires first, the attempt is abandoned (reported in the
// second return) — its goroutine drains in the background via the
// shared cancelled context and its result is discarded through the
// buffered channel. Local computation fills buf in place via
// core.RunRangeInto; an abandoned attempt keeps writing into it until
// its context check, which is why runShard retires the buffer on
// abandonment. When Execute is set the body dispatches remotely
// instead of computing locally; the surrounding machinery is
// identical, which is how shard reassignment away from a dead worker
// falls out of the ordinary retry loop.
func attemptShard(ctx context.Context, cfg *Config, codec numfmt.Codec, sh Shard, data []float64, attempt int, buf []core.Trial) ([]core.Trial, bool, error) {
	actx := ctx
	cancel := func() {}
	if cfg.shardTimeout > 0 {
		actx, cancel = context.WithTimeout(ctx, cfg.shardTimeout)
	}
	defer cancel()
	type outcome struct {
		trials []core.Trial
		err    error
	}
	done := make(chan outcome, 1)
	go func() {
		if cfg.FaultHook != nil {
			if err := cfg.FaultHook(sh, attempt); err != nil {
				done <- outcome{nil, fmt.Errorf("runner: shard %s attempt %d: %w", sh.ID(), attempt, err)}
				return
			}
		}
		if cfg.Execute != nil {
			trials, err := cfg.Execute(actx, sh)
			if err == nil {
				if serr := sh.CheckTrials(trials, cfg.campaign.TrialsPerBit); serr != nil {
					trials, err = nil, fmt.Errorf("runner: shard %s attempt %d: executor result: %w", sh.ID(), attempt, serr)
				}
			}
			done <- outcome{trials, err}
			return
		}
		trials, err := core.RunRangeInto(actx, cfg.campaign, codec, sh.Field, data, sh.BitLo, sh.BitHi, buf)
		done <- outcome{trials, err}
	}()
	select {
	case out := <-done:
		return out.trials, false, out.err
	case <-actx.Done():
		return nil, true, fmt.Errorf("runner: shard %s attempt %d: watchdog: %w", sh.ID(), attempt, actx.Err())
	}
}
