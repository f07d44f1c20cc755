package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 < p <= 1) of an ascending slice
// by nearest rank: the smallest value with at least p of the samples at
// or below it. An empty slice yields 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// sortedCopy returns xs ascending without disturbing the caller's order
// (per-round values stay in round order in result.json).
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value (mean of the two middle values for an even
// count); every end-to-end metric is the median of its per-round values.
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

// spread is the distance between the first and the third quartile of the
// per-round values as a share of their median — the run-to-run noise a
// difference is weighed against, computed the way the benchmark driver
// computes it (Python's statistics.quantiles(xs, n=4)).
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := sortedCopy(xs)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return ratio(quartile(3)-quartile(1), math.Abs(median(s)))
}

// paired calls f for every work window of a timed slice with the window's
// base: the mean of pick over the reference windows before and after it
// (ref[k] and ref[k+1] for work[k]). Pairing each window with its own
// neighbours cancels the drift of the box, which moves gpad and the
// reference server alike. Windows without requests or without both
// neighbours are skipped.
func paired(work, ref []window, pick func(window) float64, f func(w window, base float64)) {
	for k, w := range work {
		if k+1 >= len(ref) {
			break
		}
		base := (pick(ref[k]) + pick(ref[k+1])) / 2
		if len(w.lat) == 0 || len(ref[k].lat) == 0 || len(ref[k+1].lat) == 0 || base == 0 {
			continue
		}
		f(w, base)
	}
}

// relativeP50 is the median over every request of the slice of its
// latency divided by the median reference latency around its window
// (0 without a usable window).
func relativeP50(work, ref []window) float64 {
	var rs []float64
	paired(work, ref, func(w window) float64 { return w.p50 }, func(w window, base float64) {
		for _, l := range w.lat {
			rs = append(rs, l/base)
		}
	})
	return median(rs)
}

// relativeMean is the median over the work windows of the window's mean
// latency divided by the mean reference latency around it: the mean
// counts every request, the median over windows keeps a window that a
// burst of interference hit from moving it.
func relativeMean(work, ref []window) float64 {
	var rs []float64
	paired(work, ref, func(w window) float64 { return w.mean }, func(w window, base float64) {
		rs = append(rs, w.mean/base)
	})
	return median(rs)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio is a/b with 0 for an empty base, so per-request shares of an
// idle slice read 0 instead of NaN (NaN does not survive JSON).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
