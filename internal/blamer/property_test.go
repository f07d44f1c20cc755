package blamer

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gpa/internal/arch"
	"gpa/internal/gpusim"
	"gpa/internal/sampling"
	"gpa/internal/sass"
	"gpa/internal/structure"
)

// TestPropertyApportioningConservesStalls: for any distribution of
// stalls and issue counts over the Figure 4 kernel, the apportioned
// stalls across a use's surviving edges sum to the stalls observed at
// that use (Equation 1 is a partition).
func TestPropertyApportioningConservesStalls(t *testing.T) {
	mod, err := sass.Assemble(figure4Src)
	if err != nil {
		t.Fatal(err)
	}
	st, err := structure.Analyze(mod)
	if err != nil {
		t.Fatal(err)
	}
	fs := st.Func("fig4")
	n := len(fs.Fn.Instrs)
	gpu := arch.VoltaV100()
	r := rand.New(rand.NewSource(21))

	f := func() bool {
		stats := make([]sampling.PCStats, n)
		issued := make([]int64, n)
		stallCount := int64(1 + r.Intn(1000))
		stats[f4IADD].Stalls[gpusim.ReasonMemoryDependency] = stallCount
		stats[f4IADD].Total = stallCount
		issued[f4LDC] = int64(r.Intn(50))
		issued[f4LDG] = int64(r.Intn(50))
		issued[f4IMAD] = int64(r.Intn(50))
		res, err := Analyze(fs, stats, issued, gpu, Options{
			DisableIssueWeight: r.Intn(2) == 1,
			DisablePathWeight:  r.Intn(2) == 1,
		})
		if err != nil {
			return false
		}
		var sum float64
		for _, e := range res.SurvivingEdges() {
			if e.Use == f4IADD && e.Reason == gpusim.ReasonMemoryDependency {
				if e.Stalls < 0 {
					return false
				}
				sum += e.Stalls
			}
		}
		return math.Abs(sum-float64(stallCount)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertyPruningOnlyRemoves: enabling pruning rules never creates
// edges that a rule-free analysis lacks, and coverage never decreases.
func TestPropertyPruningOnlyRemoves(t *testing.T) {
	mod, err := sass.Assemble(figure4Src)
	if err != nil {
		t.Fatal(err)
	}
	st, err := structure.Analyze(mod)
	if err != nil {
		t.Fatal(err)
	}
	fs := st.Func("fig4")
	n := len(fs.Fn.Instrs)
	gpu := arch.VoltaV100()
	r := rand.New(rand.NewSource(22))

	f := func() bool {
		stats := make([]sampling.PCStats, n)
		issued := make([]int64, n)
		// Sprinkle stalls on random instructions.
		for k := 0; k < 3; k++ {
			idx := r.Intn(n)
			reason := []gpusim.StallReason{
				gpusim.ReasonMemoryDependency,
				gpusim.ReasonExecutionDependency,
			}[r.Intn(2)]
			c := int64(1 + r.Intn(40))
			stats[idx].Stalls[reason] += c
			stats[idx].Total += c
		}
		for i := range issued {
			issued[i] = int64(r.Intn(10))
		}
		pruned, err := Analyze(fs, stats, issued, gpu, Options{})
		if err != nil {
			return false
		}
		free, err := Analyze(fs, stats, issued, gpu, Options{
			DisableOpcodePrune: true, DisableDominatorPrune: true, DisableLatencyPrune: true,
		})
		if err != nil {
			return false
		}
		// Same constructed edge multiset (pruning marks, not deletes).
		if len(pruned.Edges) != len(free.Edges) {
			return false
		}
		// Surviving set is a subset.
		if len(pruned.SurvivingEdges()) > len(free.SurvivingEdges()) {
			return false
		}
		// Every pruned edge names the rule that removed it.
		for _, e := range pruned.Edges {
			switch e.PrunedBy() {
			case "", PruneOpcode, PruneDominator, PruneLatency:
			default:
				return false
			}
		}
		// Coverage values stay in [0, 1]. (Monotonicity under pruning is
		// an empirical Figure 7 observation, not an invariant: pruning
		// can shrink the node set; TestFigure7Shape checks it per
		// benchmark.)
		for _, c := range []float64{
			pruned.SingleDependencyCoverage(true),
			pruned.SingleDependencyCoverage(false),
		} {
			if c < 0 || c > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertyBlamedMassNeverExceedsObserved: summing the surviving
// edges' stalls over all defs never exceeds the total dependency-class stalls fed in.
func TestPropertyBlamedMassNeverExceedsObserved(t *testing.T) {
	mod, err := sass.Assemble(figure4Src)
	if err != nil {
		t.Fatal(err)
	}
	st, err := structure.Analyze(mod)
	if err != nil {
		t.Fatal(err)
	}
	fs := st.Func("fig4")
	n := len(fs.Fn.Instrs)
	gpu := arch.VoltaV100()
	r := rand.New(rand.NewSource(23))

	f := func() bool {
		stats := make([]sampling.PCStats, n)
		issued := make([]int64, n)
		var fed int64
		for k := 0; k < 4; k++ {
			idx := r.Intn(n)
			c := int64(1 + r.Intn(100))
			stats[idx].Stalls[gpusim.ReasonMemoryDependency] += c
			stats[idx].Total += c
			fed += c
		}
		res, err := Analyze(fs, stats, issued, gpu, Options{})
		if err != nil {
			return false
		}
		var blamed float64
		for _, m := range blamedByDef(res) {
			for _, v := range m {
				blamed += v
			}
		}
		return blamed <= float64(fed)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
