package main

import (
	"math/bits"
	"sort"
	"time"
)

// subBits gives 2^subBits linear buckets per power of two, each under
// 1% wide; quantiles interpolate inside their bucket.
const subBits = 7

// hist is a fixed-size log-linear latency histogram in nanoseconds.
type hist struct {
	counts [(64 - subBits + 1) << subBits]uint64
	n      uint64
}

func (h *hist) add(d time.Duration) {
	v := uint64(max(d.Nanoseconds(), 0))
	h.n++
	if v < 1<<subBits {
		h.counts[v]++
		return
	}
	exp := bits.Len64(v) - 1
	sub := (v >> (exp - subBits)) & (1<<subBits - 1)
	h.counts[uint64(exp-subBits+1)<<subBits|sub]++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// bucket returns bucket i's lower bound and width in nanoseconds.
func bucket(i int) (lo, width float64) {
	if i < 1<<subBits {
		return float64(i), 1
	}
	e := i >> subBits
	sub := i & (1<<subBits - 1)
	w := float64(uint64(1) << (e - 1))
	return float64(1<<subBits+sub) * w, w
}

// quantile returns the q-quantile in microseconds (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, w := bucket(i)
			return (lo + w*(target-cum)/float64(c)) / 1e3
		}
		cum += float64(c)
	}
	lo, w := bucket(len(h.counts) - 1)
	return (lo + w) / 1e3
}

// median returns the median of xs (which it sorts).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
