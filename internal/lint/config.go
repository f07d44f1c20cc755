package lint

// This file is the repo's contract table: the concrete configuration
// binding each analyzer to the runtime invariant it mechanizes. When a
// contract widens (a new determinism-critical package, a new
// taxonomy-origin package), this is the one place to extend.

// DefaultSuite returns the analyzer suite for this repository, the
// set cmd/gpa-lint runs in CI.
func DefaultSuite() []*Analyzer {
	return []*Analyzer{
		DetLint(DetConfig{
			// The packages whose outputs the determinism oracle
			// (TestParallelMatchesSequential, drift-check goldens) pins
			// bit-identical: everything from SASS bytes to ranked advice.
			// service is critical only on its key-derivation files; its
			// engine legitimately reads the clock for ElapsedMS and stage
			// latency histograms, which are recorded outside every digest.
			Critical: map[string][]string{
				"gpa/internal/gpusim":    nil,
				"gpa/internal/profiler":  nil,
				"gpa/internal/blamer":    nil,
				"gpa/internal/advisor":   nil,
				"gpa/internal/structure": nil,
				"gpa/internal/sampling":  nil,
				"gpa/internal/arch":      nil,
				"gpa/internal/store":     nil,
				"gpa/internal/cfg":       nil,
				"gpa/internal/cubin":     nil,
				"gpa/internal/sass":      nil,
				"gpa/internal/service":   {"digest.go", "stages.go"},
			},
		}),
		CtxFirst(CtxConfig{
			// The packages whose exported API simulates or blocks; the v2
			// cancellation contract (ctx-first, checkpointed simulator)
			// lives here.
			NoSyntheticCtx: []string{
				"gpa",
				"gpa/internal/gpusim",
				"gpa/internal/profiler",
				"gpa/internal/service",
				"gpa/internal/kernels",
			},
		}),
		APIErrLint(APIErrConfig{
			// Where the taxonomy says errors are tagged at origin: arch
			// lookup, simulator validation/livelock, the serving engine,
			// and the root package (assembly and kernel loading).
			Packages: []string{
				"gpa",
				"gpa/internal/arch",
				"gpa/internal/gpusim",
				"gpa/internal/service",
			},
		}),
		PoolPair(),
		PkgDoc(PkgDocConfig{
			Figure2Prefixes: []string{"gpa/internal/"},
			ExamplePrefixes: []string{"gpa/examples/"},
		}),
	}
}
