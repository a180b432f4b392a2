package telemetry

import (
	"encoding/json"
	"io"
	"time"
)

// SnapshotSchema versions the JSON layout written by WriteSnapshot
// and served through expvar. Bump it on any breaking field change so
// downstream trajectory tooling can dispatch on it.
const SnapshotSchema = "positres-telemetry/v1"

// Snapshot is the point-in-time JSON view of a Metrics set. Raw
// counters are exported verbatim; the derived rates (injections/sec,
// worker utilization) are computed at snapshot time from the metrics
// clock so every consumer sees the same arithmetic. docs/PERF.md is
// the field reference.
type Snapshot struct {
	// Schema is always SnapshotSchema ("positres-telemetry/v1"), even
	// from a nil Metrics.
	Schema string `json:"schema"`
	// ElapsedNS is nanoseconds since the metrics clock started (New or
	// the first SetWorkers).
	ElapsedNS int64 `json:"elapsed_ns"`

	// Injections counts fault-injection trials executed.
	Injections int64 `json:"injections"`
	// BitsDone counts completed bit positions.
	BitsDone int64 `json:"bits_done"`

	// ShardsDone counts shards computed and stored this process.
	ShardsDone int64 `json:"shards_done"`
	// ShardsFailed counts shards that exhausted their retry budget.
	ShardsFailed int64 `json:"shards_failed"`
	// ShardsResumed counts shards recovered from a prior run's stores.
	ShardsResumed int64 `json:"shards_resumed"`
	// Retries counts shard attempts beyond the first.
	Retries int64 `json:"retries"`
	// Backoffs counts backoff waits entered.
	Backoffs int64 `json:"backoffs"`
	// BackoffNS is the accumulated requested backoff time, nanoseconds.
	BackoffNS int64 `json:"backoff_ns"`

	// Workers is the shard worker pool size (0 until SetWorkers).
	Workers int64 `json:"workers"`
	// WorkerBusyNS is the total wall time workers spent executing
	// shards, nanoseconds.
	WorkerBusyNS int64 `json:"worker_busy_ns"`
	// WorkerUtilization is the derived fraction
	// busy / (workers × elapsed), 0 when workers or elapsed is unknown.
	WorkerUtilization float64 `json:"worker_utilization"`

	// InjectionsPerSec is Injections divided by elapsed wall time.
	InjectionsPerSec float64 `json:"injections_per_sec"`

	// ShardLatency is the per-shard wall-clock histogram.
	ShardLatency HistogramSnapshot `json:"shard_latency"`
}

// Snapshot captures the current metric values. Nil-safe: a nil
// receiver yields a zero snapshot carrying only the schema tag.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{Schema: SnapshotSchema}
	if m == nil {
		return s
	}
	if start := m.startNS.Load(); start > 0 {
		s.ElapsedNS = time.Now().UnixNano() - start
	}
	s.Injections = m.Injections.Load()
	s.BitsDone = m.BitsDone.Load()
	s.ShardsDone = m.ShardsDone.Load()
	s.ShardsFailed = m.ShardsFailed.Load()
	s.ShardsResumed = m.ShardsResumed.Load()
	s.Retries = m.Retries.Load()
	s.Backoffs = m.Backoffs.Load()
	s.BackoffNS = m.BackoffNS.Load()
	s.Workers = m.workers.Load()
	s.WorkerBusyNS = m.WorkerBusyNS.Load()
	s.ShardLatency = m.ShardLatency.Snapshot()
	if s.ElapsedNS > 0 {
		s.InjectionsPerSec = float64(s.Injections) / (float64(s.ElapsedNS) / float64(time.Second))
		if s.Workers > 0 {
			s.WorkerUtilization = float64(s.WorkerBusyNS) / (float64(s.Workers) * float64(s.ElapsedNS))
		}
	}
	return s
}

// WriteSnapshot encodes the current snapshot as indented JSON.
func (m *Metrics) WriteSnapshot(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m.Snapshot())
}
