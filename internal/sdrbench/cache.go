package sdrbench

import "sync"

// Dataset is one generated field sample, widened to float64 once.
// Data is shared by every holder and must be treated as read-only.
type Dataset struct {
	Data []float64 // Generate(n, seed) widened to float64
	key  datasetKey
}

// datasetKey identifies a dataset: Generate is a pure function of
// (field, n, seed).
type datasetKey struct {
	field string
	n     int
	seed  uint64
}

// datasetEntry is one cache slot. once fills ds outside the cache
// lock, so concurrent Acquires of one key generate it once while
// Acquires of other keys proceed.
type datasetEntry struct {
	key  datasetKey
	once sync.Once
	ds   *Dataset
	refs int // holders that have not released it yet
}

// DatasetCache shares generated datasets between concurrent users of
// the same (field, n, seed). It retains every dataset a caller still
// holds plus only the most recently released one, so retained memory
// is bounded by the work already admitted plus one dataset: callers
// that work through one field at a time (field-major shard order) hit,
// and interleaved callers degrade to generating per Acquire. The zero
// value is ready to use and safe for concurrent use.
type DatasetCache struct {
	mu        sync.Mutex
	entries   map[datasetKey]*datasetEntry
	last      *datasetEntry // most recently released entry, resident with refs == 0
	generated int64
	hits      int64
}

// CacheStats is a point-in-time view of a DatasetCache.
type CacheStats struct {
	Generated     int64 `json:"generated"`      // Acquires that generated their dataset
	Hits          int64 `json:"hits"`           // Acquires served by a resident dataset
	Resident      int   `json:"resident"`       // datasets held or last released
	ResidentBytes int64 `json:"resident_bytes"` // float64 bytes of the resident datasets
}

// Acquire returns the dataset of (f, n, seed), generating it on first
// use. The caller must Release it when done; until then the dataset
// stays resident.
func (c *DatasetCache) Acquire(f Field, n int, seed uint64) *Dataset {
	k := datasetKey{field: f.Key(), n: n, seed: seed}
	c.mu.Lock()
	if c.entries == nil {
		c.entries = map[datasetKey]*datasetEntry{}
	}
	e := c.entries[k]
	if e == nil {
		e = &datasetEntry{key: k}
		c.entries[k] = e
		c.generated++
	} else {
		c.hits++
	}
	e.refs++
	if c.last == e {
		c.last = nil // held again; no longer the released spare
	}
	c.mu.Unlock()

	e.once.Do(func() {
		e.ds = &Dataset{Data: ToFloat64(f.Generate(n, seed)), key: k}
	})
	return e.ds
}

// Release ends one Acquire of d. When its last holder releases it, d
// becomes the retained spare and the previous spare is dropped.
func (c *DatasetCache) Release(d *Dataset) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[d.key]
	e.refs--
	if e.refs > 0 {
		return
	}
	if c.last != nil {
		delete(c.entries, c.last.key)
	}
	c.last = e
}

// Stats returns the cache's tallies and current occupancy.
func (c *DatasetCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CacheStats{Generated: c.generated, Hits: c.hits, Resident: len(c.entries)}
	for k := range c.entries {
		st.ResidentBytes += int64(k.n) * 8
	}
	return st
}
