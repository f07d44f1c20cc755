package kernels

import (
	"context"
	"math"
	"testing"

	"gpa/internal/advisor"
	"gpa/internal/arch"
)

// TestAdviceWithinAmdahlBounds states the estimators' contract (Eq. 2–5)
// as a property over every corpus variant on every bundled model: each
// advice entry's speedup is finite and at least 1, and a stall
// elimination or latency hiding entry, which at best removes its
// matched share Ratio of the samples, never promises more than Amdahl's
// 1/(1 − Ratio). The estimators compute T/(T − M) and the entry carries
// the rounded M/T, so the two sides may differ in their last bits: the
// bound allows a relative 1e-12 for that rounding and nothing more.
func TestAdviceWithinAmdahlBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("advises every variant on every model")
	}
	entries := 0
	for _, g := range arch.All() {
		ro := RunOptions{GPU: g, Seed: 11}
		for _, b := range All() {
			for _, v := range []*Variant{&b.Base, &b.Opt} {
				k, wl, err := v.Build()
				if err != nil {
					t.Fatal(err)
				}
				rep, err := k.Advise(context.Background(), ro.options(wl))
				if err != nil {
					t.Fatalf("%s %s on %s: %v", b.ID(), k.Launch.Entry, arch.KeyOf(g), err)
				}
				for _, e := range rep.Advice.Entries {
					entries++
					if math.IsNaN(e.Speedup) || math.IsInf(e.Speedup, 0) || e.Speedup < 1 {
						t.Errorf("%s %s on %s, %s: speedup %v, want finite and >= 1",
							b.ID(), k.Launch.Entry, arch.KeyOf(g), e.Optimizer, e.Speedup)
					}
					if e.Category != advisor.CatStallElimination && e.Category != advisor.CatLatencyHiding {
						continue
					}
					if bound := 1 / (1 - e.Ratio); e.Ratio < 1 && e.Speedup > bound*(1+1e-12) {
						t.Errorf("%s %s on %s, %s: speedup %v exceeds 1/(1 - ratio %v) = %v",
							b.ID(), k.Launch.Entry, arch.KeyOf(g), e.Optimizer, e.Speedup, e.Ratio, bound)
					}
				}
			}
		}
	}
	if entries == 0 {
		t.Fatal("no advice entries: the property is vacuous")
	}
}
