package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{
		{0.50, 5}, {0.90, 9}, {0.99, 10}, {1, 10}, {0.05, 1}, {0.11, 2},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

func TestMedianOfRounds(t *testing.T) {
	rounds := []float64{102, 78, 95}
	if got := median(rounds); got != 95 {
		t.Errorf("median(%v) = %v, want 95", rounds, got)
	}
	if rounds[0] != 102 || rounds[1] != 78 {
		t.Errorf("median reordered its input: %v", rounds)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

func TestSpread(t *testing.T) {
	// statistics.quantiles([90, 100, 110], n=4) = [90, 100, 110];
	// statistics.quantiles([2565.9, 3170.5, 3208.7, 3353.7], n=4) =
	// [2717.05, 3189.6, 3317.45].
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{110, 90, 100}, 0.2},
		{[]float64{3353.7, 3208.7, 3170.5, 2565.9}, (3317.45 - 2717.05) / 3189.6},
		{[]float64{1, 2}, (2.25 - 0.75) / 1.5},
	} {
		if got := spread(tc.xs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one round = %v, want 0", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio over an empty base = %v, want 0", got)
	}
}

func TestRelativePairsEachWindowWithItsNeighbours(t *testing.T) {
	win := func(lat ...float64) window { return newWindow(lat, 0) }
	near := func(what string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", what, got, want)
		}
	}
	// The box slows down by half over the slice and both the program and
	// the reference slow down with it: every request reads 2x the
	// reference around it, so does the slice.
	ref := []window{win(0.20), win(0.24), win(0.28), win(0.32)}
	work := []window{win(0.44, 0.44, 0.44), win(0.52, 0.52, 0.52), win(0.60, 0.60, 0.60)}
	near("p50 under drift", relativeP50(work, ref), 2)
	near("mean under drift", relativeMean(work, ref), 2)
	// A stall in one window moves neither: the median over requests
	// ignores the two it delayed, the median over windows the window.
	work[1] = win(0.52, 50, 50)
	near("p50 with a stalled window", relativeP50(work, ref), 2)
	near("mean with a stalled window", relativeMean(work, ref), 2)
	// A window without requests, or without a reference window after it,
	// is left out: 0.44/0.22 and 0.90/0.30 remain.
	work = []window{win(0.44), win(), win(0.90), win(7)}
	near("p50 skipping unusable windows", relativeP50(work, ref), 2.5)
	near("mean skipping unusable windows", relativeMean(work, ref), 2.5)
	if p, m := relativeP50(nil, nil), relativeMean(nil, nil); p != 0 || m != 0 {
		t.Errorf("relative of nothing = %v, %v, want 0", p, m)
	}
}
