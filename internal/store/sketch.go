package store

import (
	"encoding/binary"
	"math"
	"sort"
)

// SketchAlpha is the relative accuracy of the quantile sketch: a
// reported quantile v̂ satisfies |v̂ − v| ≤ SketchAlpha·|v| for some
// exact quantile v within the sketch's rank error. One percent is far
// tighter than the decade-spanning spread of the per-bit error
// distributions the paper plots on log axes.
const SketchAlpha = 0.01

// sketchGamma is the bucket growth factor: bucket k covers
// (γ^(k−1), γ^k], which is what makes the relative-error guarantee
// hold at every magnitude (the DDSketch construction).
var sketchGamma = (1 + SketchAlpha) / (1 - SketchAlpha)

// lnGamma caches ln(γ) for the key computation.
var lnGamma = math.Log(sketchGamma)

// maxSketchBuckets bounds each sign's bucket map. When a store
// overflows, its lowest buckets collapse into a floor bucket —
// accuracy degrades only at the extreme low-magnitude tail, never at
// the median and upper quantiles the figures read. 4096 buckets cover
// more than 160 decades at SketchAlpha, so real error data never
// collapses.
const maxSketchBuckets = 4096

// Sketch is a quantile sketch over float64 values with relative
// accuracy SketchAlpha (DDSketch-style log-bucketed histogram). Zeros
// are counted exactly; negative values mirror into their own bucket
// store; NaN and ±Inf are skipped, matching stats.Quantile's
// finite-only population. The zero value is not ready to use; call
// NewSketch.
type Sketch struct {
	zero uint64
	pos  sketchStore
	neg  sketchStore
}

// NewSketch returns an empty sketch.
func NewSketch() *Sketch {
	return &Sketch{
		pos: sketchStore{buckets: map[int]uint64{}},
		neg: sketchStore{buckets: map[int]uint64{}},
	}
}

// sketchStore holds the log-bucketed counts of one sign.
type sketchStore struct {
	buckets map[int]uint64
	count   uint64
	// floor is the collapse boundary once hasFloor is set: every key
	// below it lands in the floor bucket, bounding the map.
	floor    int
	hasFloor bool
}

// sketchKey maps a positive value to its bucket index ⌈ln(v)/ln γ⌉.
func sketchKey(v float64) int {
	return int(math.Ceil(math.Log(v) / lnGamma))
}

// sketchValue returns bucket k's representative 2γ^k/(γ+1), the point
// minimizing worst-case relative error over the bucket's range.
func sketchValue(k int) float64 {
	return 2 * math.Pow(sketchGamma, float64(k)) / (sketchGamma + 1)
}

// Add folds one value into the sketch. NaN and ±Inf are skipped.
func (s *Sketch) Add(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return
	}
	switch {
	case x == 0:
		s.zero++
	case x > 0:
		s.pos.add(sketchKey(x), 1)
	default:
		s.neg.add(sketchKey(-x), 1)
	}
}

// Count reports how many finite values the sketch has absorbed.
func (s *Sketch) Count() uint64 { return s.zero + s.pos.count + s.neg.count }

// Quantile returns an approximation of the q-th quantile (q clamped
// to [0, 1]) of the values seen, NaN when empty. The result carries
// SketchAlpha relative error around an exact quantile within the
// sketch's rank resolution (one bucket).
func (s *Sketch) Quantile(q float64) float64 {
	n := s.Count()
	if n == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(n-1))
	// Ascending value order: negatives from largest magnitude down,
	// then zeros, then positives from smallest magnitude up.
	var cum uint64
	negKeys := s.neg.sortedKeys()
	for i := len(negKeys) - 1; i >= 0; i-- {
		cum += s.neg.buckets[negKeys[i]]
		if rank < cum {
			return -sketchValue(negKeys[i])
		}
	}
	cum += s.zero
	if rank < cum {
		return 0
	}
	posKeys := s.pos.sortedKeys()
	for _, k := range posKeys {
		cum += s.pos.buckets[k]
		if rank < cum {
			return sketchValue(k)
		}
	}
	// Counts are consistent by construction; reaching here means
	// rank == n-1 landed in the last bucket.
	if len(posKeys) > 0 {
		return sketchValue(posKeys[len(posKeys)-1])
	}
	return 0
}

// add increments bucket k by c, respecting the collapse floor.
func (st *sketchStore) add(k int, c uint64) {
	if st.hasFloor && k < st.floor {
		k = st.floor
	}
	st.buckets[k] += c
	st.count += c
	if len(st.buckets) > maxSketchBuckets {
		st.collapseLowest()
	}
}

// collapseLowest merges the lowest bucket into the next lowest and
// raises the floor there, shrinking the map by one.
func (st *sketchStore) collapseLowest() {
	lo, next := math.MaxInt, math.MaxInt
	for k := range st.buckets {
		switch {
		case k < lo:
			next = lo
			lo = k
		case k < next:
			next = k
		}
	}
	if next == math.MaxInt {
		return // a single bucket cannot collapse
	}
	st.buckets[next] += st.buckets[lo]
	delete(st.buckets, lo)
	st.floor = next
	st.hasFloor = true
}

// sortedKeys returns the store's bucket keys in ascending order.
func (st *sketchStore) sortedKeys() []int {
	keys := make([]int, 0, len(st.buckets))
	for k := range st.buckets {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// appendSketch serializes a sketch: zero count, then each sign store
// as a floor marker plus sorted (zigzag key, count) pairs.
func appendSketch(dst []byte, s *Sketch) []byte {
	dst = binary.AppendUvarint(dst, s.zero)
	dst = appendSketchStore(dst, &s.neg)
	return appendSketchStore(dst, &s.pos)
}

// appendSketchStore serializes one sign's bucket store.
func appendSketchStore(dst []byte, st *sketchStore) []byte {
	if st.hasFloor {
		dst = append(dst, 1)
		dst = binary.AppendVarint(dst, int64(st.floor))
	} else {
		dst = append(dst, 0)
	}
	keys := st.sortedKeys()
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = binary.AppendVarint(dst, int64(k))
		dst = binary.AppendUvarint(dst, st.buckets[k])
	}
	return dst
}

// readSketch decodes a sketch written by appendSketch.
func readSketch(c *cursor) *Sketch {
	s := NewSketch()
	s.zero = c.uvarint()
	readSketchStore(c, &s.neg)
	readSketchStore(c, &s.pos)
	return s
}

// readSketchStore decodes one sign's bucket store.
func readSketchStore(c *cursor, st *sketchStore) {
	if c.byte() != 0 {
		st.floor = c.varint()
		st.hasFloor = true
	}
	n := c.uvarint()
	if c.err == nil && n > maxSketchBuckets {
		c.fail("sketch of %d buckets exceeds %d", n, maxSketchBuckets)
		return
	}
	for i := uint64(0); c.err == nil && i < n; i++ {
		k := c.varint()
		cnt := c.uvarint()
		st.buckets[k] += cnt
		st.count += cnt
	}
}
