package store

import (
	"fmt"
	"path/filepath"
	"sync"

	"positres/internal/core"
)

// CampaignWriter fans a campaign's shards out to one Writer per
// (field, codec) pair, creating each store file lazily (and fresh) on
// its first shard. It implements the runner's shard sink: AppendShard
// may be called concurrently for any mix of specs, and the per-spec
// Writer serializes its own blocks and aggregates. Stores are sealed
// per spec as the campaign publishes results; Abort deletes whatever
// has not sealed. It is the sink for a second copy of a campaign's
// trials — the runner keeps its own resumable stores in its state
// directory.
type CampaignWriter struct {
	dir     string
	mu      sync.Mutex
	writers map[string]*Writer
}

// NewCampaignWriter returns a writer placing its store files in dir.
func NewCampaignWriter(dir string) *CampaignWriter {
	return &CampaignWriter{dir: dir, writers: map[string]*Writer{}}
}

// writerFor returns (creating if needed) the spec's store writer.
func (cw *CampaignWriter) writerFor(field, codec string) (*Writer, error) {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	key := field + "\x00" + codec
	if w, ok := cw.writers[key]; ok {
		return w, nil
	}
	w, err := NewWriter(filepath.Join(cw.dir, FileName(field, codec)), field, codec)
	if err != nil {
		return nil, err
	}
	cw.writers[key] = w
	return w, nil
}

// AppendShard routes one shard's trials to the spec's store writer —
// the runner.ShardSink contract.
func (cw *CampaignWriter) AppendShard(field, codec string, bitLo, bitHi int, trials []core.Trial) error {
	w, err := cw.writerFor(field, codec)
	if err != nil {
		return err
	}
	return w.AppendShard(bitLo, bitHi, trials)
}

// Seal finalizes one spec's store file, making it visible at its
// final path. Sealing a spec that never appended a shard is an error
// — the campaign publishes only specs that produced results.
func (cw *CampaignWriter) Seal(field, codec string) error {
	cw.mu.Lock()
	w := cw.writers[field+"\x00"+codec]
	cw.mu.Unlock()
	if w == nil {
		return fmt.Errorf("store: no shards appended for (%s, %s)", field, codec)
	}
	return w.Seal()
}

// Abort discards every store that has not sealed. Safe after partial
// sealing: sealed writers ignore it.
func (cw *CampaignWriter) Abort() {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	for _, w := range cw.writers {
		w.Abort()
	}
}
