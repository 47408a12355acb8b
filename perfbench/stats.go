package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is one or two unlucky samples, not a tail.
const minBeyond = 10

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (mean of the middle pair for even counts); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rankIndex is the nearest-rank index of percentile p in n sorted samples.
func rankIndex(p float64, n int) int {
	i := int(math.Ceil(p*float64(n)/100)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// supported reports whether n samples leave at least minBeyond samples
// above the nearest-rank percentile p.
func supported(p float64, n int) bool {
	return n > 0 && n-1-rankIndex(p, n) >= minBeyond
}

// tailPercentile returns the nearest-rank percentile p of xs, lowered to
// the highest percentile the sample supports when p itself is not
// supported, together with the percentile actually used. With fewer than
// minBeyond+1 samples it falls back to the median (p50).
func tailPercentile(xs []float64, p float64) (value, used float64) {
	if len(xs) == 0 {
		return 0, p
	}
	s := sortedCopy(xs)
	used = p
	if !supported(p, len(s)) {
		// Highest rank index that still leaves minBeyond samples above it.
		i := len(s) - 1 - minBeyond
		if i < 0 {
			return median(xs), 50
		}
		used = math.Floor(100 * float64(i+1) / float64(len(s)))
		if used < 50 {
			return median(xs), 50
		}
	}
	return s[rankIndex(used, len(s))], used
}

// mbps converts bytes moved in seconds to megabits per second (10^6 bits).
func mbps(bytes, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return bytes * 8 / 1e6 / seconds
}

// mbPerSec converts bytes moved in seconds to megabytes per second (10^6 B).
func mbPerSec(bytes, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return bytes / 1e6 / seconds
}

// ratio divides part by its base, reading an empty base as 0 (no work done
// means no share of it failed), never NaN.
func ratio(part, base float64) float64 {
	if base == 0 {
		return 0
	}
	return part / base
}

// interval is a closed-open time range in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its children cover.
// Children may overlap each other (concurrent work) and may stick out of the
// parent; only the union of their intersections with the parent counts.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered int64
	curS, curE := int64(0), int64(-1)
	for _, c := range clipped {
		if curE < curS || c.start > curE {
			if curE > curS {
				covered += curE - curS
			}
			curS, curE = c.start, c.end
			continue
		}
		if c.end > curE {
			curE = c.end
		}
	}
	if curE > curS {
		covered += curE - curS
	}
	return parent.end - parent.start - covered
}
