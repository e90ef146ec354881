package analytics

import (
	"fmt"
	"sort"
	"strings"
)

// Histogram is a sparse value → count table over int64 data, used for
// degree, eccentricity and triangle distributions.
type Histogram struct {
	counts map[int64]int64
	total  int64
}

// NewHistogram builds a histogram of the given values.
func NewHistogram(values []int64) *Histogram {
	counts := make(map[int64]int64)
	for _, v := range values {
		counts[v]++
	}
	return HistogramOf(counts)
}

// HistogramOf wraps a value → count table built elsewhere — a ground-truth
// law's histogram folded from its factors', say — without the values.
func HistogramOf(counts map[int64]int64) *Histogram {
	h := &Histogram{counts: counts}
	for _, c := range counts {
		h.total += c
	}
	return h
}

// Count returns the number of observations equal to v.
func (h *Histogram) Count(v int64) int64 { return h.counts[v] }

// Total returns the number of observations.
func (h *Histogram) Total() int64 { return h.total }

// Keys returns the distinct observed values in ascending order.
func (h *Histogram) Keys() []int64 {
	keys := make([]int64, 0, len(h.counts))
	for k := range h.counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Min returns the smallest observed value (0 if empty).
func (h *Histogram) Min() int64 {
	keys := h.Keys()
	if len(keys) == 0 {
		return 0
	}
	return keys[0]
}

// Max returns the largest observed value (0 if empty).
func (h *Histogram) Max() int64 {
	keys := h.Keys()
	if len(keys) == 0 {
		return 0
	}
	return keys[len(keys)-1]
}

// Equal reports whether two histograms have identical counts.
func (h *Histogram) Equal(o *Histogram) bool {
	if len(h.counts) != len(o.counts) || h.total != o.total {
		return false
	}
	for k, c := range h.counts {
		if o.counts[k] != c {
			return false
		}
	}
	return true
}

// Render draws a fixed-width ASCII bar chart of the histogram, one row per
// distinct value, bars scaled to width characters. Used by cmd/experiments
// to reproduce the paper's figures as text.
func (h *Histogram) Render(width int) string {
	keys := h.Keys()
	var maxCount int64 = 1
	for _, k := range keys {
		if h.counts[k] > maxCount {
			maxCount = h.counts[k]
		}
	}
	var b strings.Builder
	for _, k := range keys {
		c := h.counts[k]
		bar := int(float64(width) * float64(c) / float64(maxCount))
		if c > 0 && bar == 0 {
			bar = 1
		}
		fmt.Fprintf(&b, "%8d | %-*s %d\n", k, width, strings.Repeat("#", bar), c)
	}
	return b.String()
}
