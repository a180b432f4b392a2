package sdrbench

import (
	"reflect"
	"sync"
	"testing"
)

func mustField(t *testing.T, key string) Field {
	t.Helper()
	f, err := Lookup(key)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestDatasetCacheConcurrentAcquire: goroutines racing to Acquire one
// key share a single generation and a single *Dataset. Run under
// -race (make race) it also checks that the fill is published safely.
func TestDatasetCacheConcurrentAcquire(t *testing.T) {
	var c DatasetCache
	f := mustField(t, "CESM/CLOUD")
	const goroutines = 16
	got := make([]*Dataset, goroutines)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = c.Acquire(f, 4096, 7)
		}()
	}
	wg.Wait()
	for i, d := range got {
		if d != got[0] {
			t.Fatalf("goroutine %d got a different *Dataset", i)
		}
	}
	if st := c.Stats(); st.Generated != 1 || st.Hits != goroutines-1 || st.Resident != 1 {
		t.Fatalf("stats = %+v, want 1 generation and %d hits on 1 resident dataset", st, goroutines-1)
	}
	for _, d := range got {
		c.Release(d)
	}
}

// TestDatasetCacheRetention: datasets stay resident while held, and
// once everything is released only the most recently released one is
// kept.
func TestDatasetCacheRetention(t *testing.T) {
	var c DatasetCache
	keys := []string{"CESM/CLOUD", "HACC/vx", "Nyx/temperature"}
	var held []*Dataset
	for _, k := range keys {
		held = append(held, c.Acquire(mustField(t, k), 1000, 7))
	}
	if st := c.Stats(); st.Resident != 3 || st.ResidentBytes != 3*1000*8 {
		t.Fatalf("while held: stats = %+v, want 3 resident datasets of 8000 bytes", st)
	}
	for _, d := range held {
		c.Release(d)
	}
	st := c.Stats()
	if st.Resident != 1 || st.ResidentBytes != 1000*8 {
		t.Fatalf("after release: stats = %+v, want only the last released dataset", st)
	}

	// The survivor is the last one released: acquiring it again hits,
	// acquiring an evicted one generates.
	last := c.Acquire(mustField(t, keys[2]), 1000, 7)
	if last != held[2] {
		t.Fatal("last released dataset was not retained")
	}
	first := c.Acquire(mustField(t, keys[0]), 1000, 7)
	if first == held[0] {
		t.Fatal("evicted dataset was still served")
	}
	if st := c.Stats(); st.Generated != 4 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 4 generations and 1 hit", st)
	}
	c.Release(first)
	c.Release(last)
	if st := c.Stats(); st.Resident != 1 {
		t.Fatalf("after second release: %d datasets resident, want 1", st.Resident)
	}
}

// TestDatasetCacheHitMatchesFresh: a cached dataset is exactly what
// Generate produces, and a different n or seed is a different dataset.
func TestDatasetCacheHitMatchesFresh(t *testing.T) {
	var c DatasetCache
	f := mustField(t, "Hurricane/Wf30")
	miss := c.Acquire(f, 5000, 11)
	hit := c.Acquire(f, 5000, 11)
	if hit != miss {
		t.Fatal("second Acquire of one key did not hit")
	}
	want := ToFloat64(f.Generate(5000, 11))
	if !reflect.DeepEqual(hit.Data, want) {
		t.Fatal("cached data differs from a fresh Generate")
	}
	for _, other := range []*Dataset{c.Acquire(f, 4999, 11), c.Acquire(f, 5000, 12)} {
		if other == hit {
			t.Fatal("a different (n, seed) shared the cached dataset")
		}
		c.Release(other)
	}
	c.Release(hit)
	c.Release(miss)
}
