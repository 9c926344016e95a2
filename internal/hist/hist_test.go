package hist

import (
	"math"
	"testing"
)

func fill(vs ...int64) *Hist {
	var h Hist
	for _, v := range vs {
		h.Add(v)
	}
	return &h
}

func seq(lo, hi int64) []int64 {
	var vs []int64
	for v := lo; v <= hi; v++ {
		vs = append(vs, v)
	}
	return vs
}

// TestQuantile checks the nearest-rank percentile: the ⌈q·n⌉-th sample,
// reported as its bucket's lower bound.
func TestQuantile(t *testing.T) {
	for _, c := range []struct {
		name    string
		samples []int64
		q       float64
		lo, hi  int64 // the answer must lie in [lo, hi]
	}{
		{"empty", nil, 0.5, 0, 0},
		{"single sample", []int64{7}, 0.99, 7, 7},
		{"negative counts as zero", []int64{-5}, 0.5, 0, 0},
		// ⌈0.99·2⌉ = 2: the larger sample, in bucket [992, 1024).
		{"p99 of two", []int64{7, 1000}, 0.99, 992, 992},
		// ⌈0.99·3⌉ = 3: the largest; values below 32 are exact.
		{"p99 of three", []int64{10, 20, 30}, 0.99, 30, 30},
		{"p50 of three", []int64{10, 20, 30}, 0.50, 20, 20},
		{"p0 takes the first", []int64{10, 20, 30}, 0, 10, 10},
		// 1..10000: within the ~6% bucket resolution of the exact rank.
		{"p50 of 1..10000", seq(1, 10000), 0.50, 5000 * 15 / 16, 5000},
		{"p95 of 1..10000", seq(1, 10000), 0.95, 9500 * 15 / 16, 9500},
		{"p99 of 1..10000", seq(1, 10000), 0.99, 9900 * 15 / 16, 9900},
	} {
		if got := fill(c.samples...).Quantile(c.q); got < c.lo || got > c.hi {
			t.Errorf("%s: Quantile(%v) = %d, want in [%d, %d]", c.name, c.q, got, c.lo, c.hi)
		}
	}
}

// TestMerge checks that merging two histograms equals one histogram fed
// both inputs.
func TestMerge(t *testing.T) {
	a, b := seq(1, 3000), []int64{0, 17, 1 << 20, 5e9, math.MaxInt64}
	merged := fill(a...)
	merged.Merge(fill(b...))
	if both := fill(append(a, b...)...); *merged != *both {
		t.Error("Merge differs from one histogram fed both inputs")
	}
}

// TestBuckets checks the walk: ascending, non-empty, [lo, hi) holding
// lo < hi, and counts summing to the samples added.
func TestBuckets(t *testing.T) {
	samples := append(seq(0, 2000), 1<<40, 5e9, math.MaxInt64)
	h := fill(samples...)
	var total uint64
	prevHi := int64(0)
	h.Buckets(func(lo, hi int64, n uint64) {
		if lo >= hi || lo < prevHi || n == 0 {
			t.Errorf("bucket [%d, %d) count %d after a bucket ending at %d", lo, hi, n, prevHi)
		}
		prevHi = hi
		total += n
	})
	if total != uint64(len(samples)) {
		t.Errorf("bucket counts sum to %d, want %d", total, len(samples))
	}
	for _, v := range samples {
		var in bool
		fill(v).Buckets(func(lo, hi int64, _ uint64) { in = lo <= v && (v < hi || hi == math.MaxInt64) })
		if !in {
			t.Errorf("sample %d lies outside its bucket", v)
		}
	}
}
