// Package apierr defines the typed error taxonomy of the public gpa
// API. Every error that crosses the API boundary wraps exactly one of
// these sentinels, so callers branch with errors.Is instead of string
// matching and cmd/gpad maps failures to HTTP status codes from the
// same table. The sentinels live in this leaf package (imported by
// arch, sass, gpusim, service, and the root gpa package alike) so the
// internal pipeline can tag errors at the point of failure without
// importing the public API; the root package re-exports them as
// gpa.ErrUnknownArch and friends. Relative to Figure 2 it is the
// failure-reporting spine running alongside every stage from
// measurement through advising: whichever stage fails, the caller sees
// the same small vocabulary.
package apierr

import (
	"context"
	"errors"
	"fmt"
	"time"
)

var (
	// ErrUnknownArch tags failures to resolve a GPU architecture model
	// (an unregistered name or alias).
	ErrUnknownArch = errors.New("unknown architecture")
	// ErrBadKernel tags invalid kernels and launches: a missing entry
	// function, a malformed CUBIN container, an empty grid, or a launch
	// shape no SM configuration can host.
	ErrBadKernel = errors.New("bad kernel")
	// ErrAssemble tags SASS assembly failures (syntax errors, unknown
	// opcodes, undefined labels).
	ErrAssemble = errors.New("assembly failed")
	// ErrCanceled tags operations abandoned because their context was
	// canceled or its deadline expired. The wrapped chain retains the
	// original ctx.Err(), so errors.Is also matches context.Canceled or
	// context.DeadlineExceeded as appropriate.
	ErrCanceled = errors.New("operation canceled")
	// ErrQueueFull tags requests the serving engine rejected because its
	// admission queue was at capacity (load shedding; retry later).
	ErrQueueFull = errors.New("queue full")
	// ErrShuttingDown tags requests rejected because the engine is
	// draining for shutdown.
	ErrShuttingDown = errors.New("shutting down")
	// ErrQuotaExceeded tags requests shed because the tenant's
	// token-bucket quota is exhausted (HTTP 429; retry after the bucket
	// accrues a token). Carried by QuotaError, which adds the computed
	// Retry-After hint.
	ErrQuotaExceeded = errors.New("quota exceeded")
	// ErrSimLimit tags simulations aborted by the runaway-cycle bound
	// (Config.MaxCycles), usually a livelocked kernel.
	ErrSimLimit = errors.New("simulation limit exceeded")
	// ErrInternal tags failures that are the server's own fault and that
	// no retry of the same request is promised to fix: a panic contained
	// at the engine's flight boundary, or a stored stage artifact that
	// vanished or no longer decodes when a caller asks for its struct
	// form (HTTP 500).
	ErrInternal = errors.New("internal error")
)

// CanceledError is the concrete type cancellation errors carry:
// errors.Is matches ErrCanceled and (through Cause) the original
// context error, and errors.As exposes the cause directly.
type CanceledError struct {
	// Cause is the context error that triggered the cancellation
	// (context.Canceled or context.DeadlineExceeded).
	Cause error
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("%v: %v", ErrCanceled, e.Cause)
}

// Is makes errors.Is(err, ErrCanceled) match without losing the cause.
func (e *CanceledError) Is(target error) bool { return target == ErrCanceled }

// Unwrap exposes the original context error to errors.Is.
func (e *CanceledError) Unwrap() error { return e.Cause }

// Canceled wraps cause (normally a ctx.Err()) so the result matches
// both ErrCanceled and the original context error under errors.Is,
// and surfaces the cause via errors.As on *CanceledError. A nil cause
// yields the bare sentinel.
func Canceled(cause error) error {
	if cause == nil {
		return ErrCanceled
	}
	return &CanceledError{Cause: cause}
}

// QuotaError is the concrete type quota sheds carry: errors.Is matches
// ErrQuotaExceeded, and errors.As exposes the tenant and the time until
// the tenant's bucket accrues its next token, which cmd/gpad turns into
// the 429 Retry-After header.
type QuotaError struct {
	// Tenant is the over-quota tenant (after default normalization).
	Tenant string
	// RetryAfter is how long until one token accrues at the tenant's
	// configured rate — the earliest moment a retry can succeed.
	RetryAfter time.Duration
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("%v: tenant %q (retry after %v)", ErrQuotaExceeded, e.Tenant, e.RetryAfter)
}

// Is makes errors.Is(err, ErrQuotaExceeded) match.
func (e *QuotaError) Is(target error) bool { return target == ErrQuotaExceeded }

// CtxErr returns nil while ctx is live, and the context's error
// wrapped in ErrCanceled once it is done. It is the cancel checkpoint
// every cancelable stage polls.
func CtxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return Canceled(err)
	}
	return nil
}
