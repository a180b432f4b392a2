package runner

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"positres/internal/atomicio"
)

// Campaign states recorded in the manifest.
const (
	// StateRunning is written when a campaign starts; a manifest still
	// in this state on load means the previous process died mid-run.
	StateRunning = "running"
	// StateComplete: every shard durable and every store sealed.
	StateComplete = "complete"
	// StatePartial: the campaign finished but one or more shards
	// exhausted their retry budget (graceful degradation).
	StatePartial = "partial"
	// StateCancelled: the campaign was interrupted (SIGINT/SIGTERM or
	// parent-context cancellation) after a clean drain.
	StateCancelled = "cancelled"
)

// Shard states recorded in ShardStatus.
const (
	// ShardDone: computed and appended to its store this run.
	ShardDone = "done"
	// ShardResumed: recovered from a verified store block of a
	// previous run; not recomputed.
	ShardResumed = "resumed"
	// ShardFailed: exhausted its retry budget.
	ShardFailed = "failed"
	// ShardSkipped: never ran (or was abandoned mid-flight) because
	// the campaign was cancelled first.
	ShardSkipped = "skipped"
)

// ShardStatus is one shard's outcome, serialized into the manifest and
// aggregated into the Report.
type ShardStatus struct {
	Shard
	// State is one of ShardDone, ShardResumed, ShardFailed,
	// ShardSkipped.
	State string `json:"state"`
	// Attempts counts executions including the successful one; 0 for
	// resumed and skipped shards.
	Attempts int `json:"attempts,omitempty"`
	// DurationNS is the compute wall time of the final attempt in
	// nanoseconds (0 for resumed/skipped shards); Duration converts it.
	DurationNS int64 `json:"duration_ns,omitempty"`
	// Error is the final attempt's failure, "" unless State is
	// ShardFailed.
	Error string `json:"error,omitempty"`
}

// Duration returns the shard's recorded compute time.
func (s ShardStatus) Duration() time.Duration { return time.Duration(s.DurationNS) }

// Manifest is the campaign's durable self-description, written
// atomically at start (StateRunning) and at completion. Progress truth
// lives in the stores' blocks; the manifest carries identity (the
// campaign parameters a resume must match), the shard plan, and the
// final outcome for operators and tooling.
type Manifest struct {
	// Version is the manifest schema version (currently 1); loading
	// any other value fails rather than misreading the layout.
	Version int `json:"version"`
	// State is one of StateRunning, StateComplete, StatePartial,
	// StateCancelled.
	State string `json:"state"`
	// CreatedAt is the RFC 3339 UTC time the campaign first started.
	CreatedAt string `json:"created_at"`
	// UpdatedAt is the RFC 3339 UTC time of the last manifest write;
	// rewritten on every write.
	UpdatedAt string `json:"updated_at"`
	// Campaign is the identity a resume must match exactly (seed,
	// trials per bit, zero handling, selection bound).
	Campaign campaignParams `json:"campaign"`
	// BitsPerShard is the sharding granularity the stores were cut at;
	// part of the resume identity.
	BitsPerShard int `json:"bits_per_shard"`
	// Specs is the ordered campaign matrix.
	Specs []Spec `json:"specs"`
	// Shards, present once the run finishes, records every shard
	// outcome in (spec, bit) order.
	Shards []ShardStatus `json:"shards,omitempty"`
}

const manifestVersion = 1

// ErrStateExists is returned when a state directory already holds a
// campaign and Resume was not requested.
var ErrStateExists = errors.New("runner: state directory already holds a campaign; pass Resume to continue it or choose a fresh directory")

// loadManifest reads a manifest if present; a missing file returns
// (nil, nil).
func loadManifest(path string) (*Manifest, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("runner: manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("runner: manifest %s: %w", path, err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("runner: manifest %s: unsupported version %d", path, m.Version)
	}
	return &m, nil
}

// writeManifest persists the manifest atomically.
func writeManifest(path string, m *Manifest) error {
	m.UpdatedAt = time.Now().UTC().Format(time.RFC3339)
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("runner: manifest encode: %w", err)
	}
	if err := atomicio.WriteFileBytes(path, append(raw, '\n')); err != nil {
		return fmt.Errorf("runner: manifest: %w", err)
	}
	return nil
}

// compatible verifies that a loaded manifest describes the same
// campaign as the current invocation — resuming with different
// parameters would silently mix incompatible trial streams.
func (m *Manifest) compatible(params campaignParams, bitsPerShard int, specs []Spec) error {
	if m.Campaign != params {
		return fmt.Errorf("runner: state directory belongs to a different campaign: params %+v, want %+v", m.Campaign, params)
	}
	if m.BitsPerShard != bitsPerShard {
		return fmt.Errorf("runner: state directory was sharded at %d bits/shard, want %d", m.BitsPerShard, bitsPerShard)
	}
	if len(m.Specs) != len(specs) {
		return fmt.Errorf("runner: state directory covers %d specs, want %d", len(m.Specs), len(specs))
	}
	for i := range specs {
		if m.Specs[i] != specs[i] {
			return fmt.Errorf("runner: state directory spec %d is %+v, want %+v", i, m.Specs[i], specs[i])
		}
	}
	return nil
}
