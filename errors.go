package gpa

import "gpa/internal/apierr"

// The typed error taxonomy of the v2 API. Every error returned across
// the public surface — Kernel loading and simulation, Engine jobs, and
// the gpad HTTP service — wraps exactly one of these sentinels, so
// callers classify failures with errors.Is/errors.As instead of string
// matching:
//
//	_, err := k.Advise(ctx, nil)
//	switch {
//	case errors.Is(err, gpa.ErrCanceled):     // ctx canceled or deadline hit
//	case errors.Is(err, gpa.ErrUnknownArch):  // bad -arch / profile arch
//	case errors.Is(err, gpa.ErrQueueFull):    // engine shed the job; retry
//	}
//
// Cancellation errors additionally retain the original context error,
// so errors.Is(err, context.DeadlineExceeded) distinguishes an expired
// deadline from an explicit cancel. cmd/gpad maps this same taxonomy
// to HTTP status codes.
var (
	// ErrUnknownArch: a GPU architecture name or alias that no bundled
	// model serves.
	ErrUnknownArch = apierr.ErrUnknownArch
	// ErrBadKernel: an invalid kernel or launch (missing entry function,
	// malformed CUBIN, empty grid, launch shape no SM can host).
	ErrBadKernel = apierr.ErrBadKernel
	// ErrAssemble: SASS assembly failed.
	ErrAssemble = apierr.ErrAssemble
	// ErrCanceled: the operation's context was canceled or its deadline
	// expired before the result was produced.
	ErrCanceled = apierr.ErrCanceled
	// ErrQueueFull: the engine's admission queue was at capacity and the
	// job was shed without running.
	ErrQueueFull = apierr.ErrQueueFull
	// ErrShuttingDown: the engine is draining and no longer admits jobs.
	ErrShuttingDown = apierr.ErrShuttingDown
	// ErrSimLimit: the simulation exceeded its runaway-cycle bound.
	ErrSimLimit = apierr.ErrSimLimit
	// ErrQuotaExceeded: the job's tenant is over its admission quota and
	// the job was shed before touching the cache or a worker. The error
	// carries a computed backoff; see QuotaError.
	ErrQuotaExceeded = apierr.ErrQuotaExceeded
	// ErrInternal: the engine itself failed — a panic contained at the
	// flight boundary, or a stored artifact that vanished or no longer
	// decodes when JobResult.Report or JobResult.Profile asks for it.
	ErrInternal = apierr.ErrInternal
)

// CanceledError is the concrete type cancellation errors carry;
// errors.As(err, &ce) exposes the original context error as ce.Cause
// (context.Canceled for an explicit cancel, context.DeadlineExceeded
// for an expired deadline).
type CanceledError = apierr.CanceledError

// QuotaError is the concrete type quota rejections carry;
// errors.As(err, &qe) exposes the billed tenant and a computed
// RetryAfter hint (cmd/gpad forwards it as the Retry-After header on
// 429 responses).
type QuotaError = apierr.QuotaError
