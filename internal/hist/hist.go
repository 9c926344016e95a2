// Package hist is the repository's latency histogram: a fixed array of
// log-linear buckets that records without allocating and answers
// percentiles without sorting. Every power-of-two range is split into
// 2^subBits linear sub-buckets, so a bucket spans at most ~6% of its
// lower bound; values below 2^(subBits+1) get a bucket each.
package hist

import (
	"math"
	"math/bits"
)

// subBits gives 2^subBits linear sub-buckets per power-of-two range:
// ~6% relative resolution, enough for p99.
const subBits = 4

// Hist counts non-negative samples, nanoseconds by convention. The zero
// value is an empty histogram. A Hist is not safe for concurrent use:
// give each writer its own and Merge them.
type Hist struct {
	// counts[i] is bucket i; a non-negative int64 has at most 63
	// significant bits, so 64-subBits blocks cover every sample.
	counts [(64 - subBits) << subBits]uint64
	n      uint64
}

// Add records one sample; a negative sample counts as 0.
//
//ring:hotpath
func (h *Hist) Add(v int64) {
	u := uint64(max(v, 0))
	h.n++
	if u < 1<<subBits {
		h.counts[u]++
		return
	}
	exp := bits.Len64(u) - 1
	sub := (u >> (exp - subBits)) & (1<<subBits - 1)
	h.counts[uint64(exp-subBits+1)<<subBits|sub]++
}

// Merge adds o's samples to h.
func (h *Hist) Merge(o *Hist) {
	h.n += o.n
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
}

// Quantile returns the lower bound of the bucket holding the q-quantile
// sample by nearest rank: the ⌈q·n⌉-th smallest of n, and at least the
// first (0 < q <= 1). An empty histogram answers 0.
func (h *Hist) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := max(uint64(math.Ceil(q*float64(h.n))), 1)
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			lo, _ := bounds(i)
			return lo
		}
	}
	return 0
}

// Buckets calls f for every non-empty bucket in ascending order with
// its bounds, [lo, hi), and its count.
func (h *Hist) Buckets(f func(lo, hi int64, n uint64)) {
	for i, c := range h.counts {
		if c > 0 {
			lo, hi := bounds(i)
			f(lo, hi, c)
		}
	}
}

// bounds returns bucket i's range [lo, hi). The top bucket's upper
// bound, 2^63, saturates to the largest int64.
func bounds(i int) (lo, hi int64) {
	block := uint64(i) >> subBits
	sub := uint64(i) & (1<<subBits - 1)
	if block == 0 {
		return int64(sub), int64(sub) + 1
	}
	lo = int64((1<<subBits | sub) << (block - 1))
	hi = lo + int64(1)<<(block-1)
	if hi < lo {
		hi = math.MaxInt64
	}
	return lo, hi
}
