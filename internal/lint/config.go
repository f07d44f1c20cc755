package lint

// This file is the repo's contract table: the concrete configuration
// binding each analyzer to the runtime invariant it mechanizes. When a
// contract widens (a new determinism-critical package, a new field on
// service.Request, a new taxonomy-origin package), this is the one
// place to extend — and digestfields/detlint diagnostics will demand
// it, because an unclassified addition is a build failure.

// ServiceDigest is the digestfields contract for internal/service. It
// is exported because the service's own key-factoring test
// (TestStageKeysFactorThePipeline) reads the same exclusion table: the
// analyzer proves every field is classified, the test proves each
// classification is true of the keys.
var ServiceDigest = DigestConfig{
	Pkg: "gpa/internal/service",
	// Request.keyMaterial is the one key derivation: a field read
	// anywhere inside it counts as digested. gpuModelHash canonically
	// JSON-encodes the whole arch.GPU table, covering its fields
	// wholesale.
	Funcs: []string{"Request.keyMaterial", "gpuModelHash"},
	Structs: []TrackedStruct{
		{
			Type: "gpa/internal/service.Request",
			Exclude: map[string]string{
				// Transport- and execution-only state. Each entry is
				// a proof obligation: adding a field here asserts it
				// can never change result bytes.
				"Prog":        "derived cache of Module; the keys cover the module content it derives from",
				"Parallelism": "simulator results are bit-identical at every parallelism level (TestParallelMatchesSequential)",
				"Timeout":     "deadlines abort work; they never alter a completed result",
				"TraceID":     "transport-only observability; pinned by TestTraceIDExcludedFromDigest",
				"Tenant":      "admission metadata: decides who runs next and who is billed, never what a run computes; two tenants share one artifact and one flight — pinned by TestTenantExcludedFromDigest",
				"Lane":        "admission priority; scheduling order cannot change a completed result — pinned by TestTenantExcludedFromDigest",
			},
		},
		{Type: "gpa/internal/blamer.Options"},
		{Type: "gpa/internal/gpusim.LaunchConfig"},
		{Type: "gpa/internal/gpusim.Dim3"},
		{Type: "gpa/internal/arch.GPU"},
	},
}

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
		DigestFields(ServiceDigest),
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
