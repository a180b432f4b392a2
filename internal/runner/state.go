package runner

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"positres/internal/core"
	"positres/internal/store"
)

// state owns the durable side of a run: the manifest file and one
// store per (field, codec) pair, which is the only durable record of
// a completed shard. With Config.Dir empty it degrades to a no-op so
// the orchestration (cancellation, watchdog, retry) works without any
// filesystem footprint.
type state struct {
	dir          string
	manifestPath string
	manifest     *Manifest
	// resuming is set when a previous run's manifest was found (and
	// matched): its stores are reopened instead of started fresh.
	resuming bool
	stores   []*store.Writer // index-aligned with the specs
}

func (s *state) enabled() bool { return s.dir != "" }

// openState validates the state directory against the requested
// campaign. An existing manifest without Resume is ErrStateExists; an
// existing manifest with incompatible parameters is a fatal mismatch
// (resuming it would splice incompatible trial streams).
func openState(cfg *Config, params campaignParams, specs []Spec) (*state, error) {
	if cfg.Dir == "" {
		return &state{}, nil
	}
	s := &state{
		dir:          cfg.Dir,
		manifestPath: filepath.Join(cfg.Dir, "manifest.json"),
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: state dir: %w", err)
	}
	prev, err := loadManifest(s.manifestPath)
	if err != nil {
		return nil, err
	}
	created := time.Now().UTC().Format(time.RFC3339)
	if prev != nil {
		if !cfg.Resume {
			return nil, fmt.Errorf("%w: %s", ErrStateExists, cfg.Dir)
		}
		if err := prev.compatible(params, cfg.bitsPerShard, specs); err != nil {
			return nil, err
		}
		created = prev.CreatedAt
		s.resuming = true
	}
	s.manifest = &Manifest{
		Version:      manifestVersion,
		State:        StateRunning,
		CreatedAt:    created,
		Campaign:     params,
		BitsPerShard: cfg.bitsPerShard,
		Specs:        specs,
	}
	return s, nil
}

// openStores opens one store per spec in the state directory: fresh
// for a new campaign, through store.Resume (with keep judging each
// recovered block) when resuming.
func (s *state) openStores(specs []Spec, keep func(sp Spec, bitLo, bitHi int, trials []core.Trial) bool) error {
	if !s.enabled() {
		return nil
	}
	for _, sp := range specs {
		path := filepath.Join(s.dir, store.FileName(sp.Field, sp.Codec))
		var w *store.Writer
		var err error
		if s.resuming {
			w, err = store.Resume(path, sp.Field, sp.Codec, func(bitLo, bitHi int, trials []core.Trial) bool {
				return keep(sp, bitLo, bitHi, trials)
			})
		} else {
			w, err = store.NewWriter(path, sp.Field, sp.Codec)
		}
		if err != nil {
			s.closeStores()
			return fmt.Errorf("runner: store for %s: %w", sp.Key(), err)
		}
		s.stores = append(s.stores, w)
	}
	return nil
}

// append makes one completed shard durable in its spec's store. Safe
// for concurrent use: each store serializes its own appends.
func (s *state) append(si int, sh Shard, trials []core.Trial) error {
	if !s.enabled() {
		return nil
	}
	return s.stores[si].AppendShard(sh.BitLo, sh.BitHi, trials)
}

// snapshot returns each store's live aggregate document.
func (s *state) snapshot() []*store.AggregateDoc {
	var docs []*store.AggregateDoc
	for _, w := range s.stores {
		docs = append(docs, w.Doc())
	}
	return docs
}

// closeStores releases every store that is not sealed, leaving its
// pending file for a Resume run.
func (s *state) closeStores() {
	for _, w := range s.stores {
		_ = w.Close() // best effort: every block is already fsynced; only the release can fail
	}
}

// begin marks the campaign running in the manifest before any shard
// executes, so an interrupted process leaves StateRunning behind as
// evidence.
func (s *state) begin(statuses []ShardStatus) error {
	if !s.enabled() {
		return nil
	}
	s.manifest.Shards = statuses
	return writeManifest(s.manifestPath, s.manifest)
}

// finish seals the store of every spec that produced a result (unless
// the run was cancelled), then records the campaign's final state in
// the manifest. Sealing comes first: a crash in between leaves sealed
// stores under a "running" manifest, which a Resume run reopens as
// fully recovered. Called on every exit path that reaches the drain,
// including cancellation.
func (s *state) finish(rep *Report) error {
	if !s.enabled() {
		return nil
	}
	if !rep.Cancelled {
		var errs []error
		for si, res := range rep.Results {
			if res != nil {
				errs = append(errs, s.stores[si].Seal())
			}
		}
		if err := errors.Join(errs...); err != nil {
			return fmt.Errorf("runner: seal: %w", err)
		}
	}
	s.manifest.Shards = rep.Shards
	s.manifest.State = rep.Outcome()
	return writeManifest(s.manifestPath, s.manifest)
}
