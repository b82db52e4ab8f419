package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 over 300 samples is the third-worst value, not a tail.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of sorted, by the
// nearest-rank rule every harness in this repository already uses
// (index n*q), and whether at least minTail samples lie beyond it.
func percentile(sorted []float64, q float64) (v float64, supported bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	i := int(float64(n) * q)
	if i >= n {
		i = n - 1
	}
	return sorted[i], n-1-i >= minTail
}

// tailPercentile returns the q-quantile when the sample supports it and
// otherwise the highest of the fallback quantiles that it does support
// (the median as a last resort), so a short run still reports a number
// that is not a maximum in disguise.
func tailPercentile(sorted []float64, q float64, fallback ...float64) float64 {
	for _, try := range append([]float64{q}, fallback...) {
		if v, ok := percentile(sorted, try); ok {
			return v
		}
	}
	v, _ := percentile(sorted, 0.5)
	return v
}

// median returns the middle value (mean of the two middle values for an
// even count); it does not modify vs.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is (max−min)/median over repetitions: the run-to-run noise
// recorded beside every reported median. Zero medians give zero spread
// when all values agree and +Inf when they do not.
func spread(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi == lo {
		return 0
	}
	m := median(vs)
	if m == 0 {
		return math.Inf(1)
	}
	return (hi - lo) / math.Abs(m)
}

// interval is a half-open time interval [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its children cover
// (children may overlap each other and stick out of the parent; only
// their union inside the parent counts).
func selfTime(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered, reach := int64(0), parent.start
	for _, c := range cs {
		if c.start > reach {
			reach = c.start
		}
		if c.end > reach {
			covered += c.end - reach
			reach = c.end
		}
	}
	return parent.end - parent.start - covered
}

// sortedMs converts nanosecond samples to sorted milliseconds.
func sortedMs(ns []uint32) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	sort.Float64s(out)
	return out
}
