package archive

// The unified error envelope of the /api/v1 surface.
//
// Every non-2xx response body is one shape:
//
//	{"error": {"code": "...", "message": "...", "param": "..."}}
//
// `code` is a stable machine-readable identifier from the set below —
// clients branch on it, never on message text. `message` is the
// human-readable explanation (the same texts the API has always
// produced; cursor-expiry and throttling messages are preserved
// verbatim). `param` names the request parameter at fault when one can
// be identified, and is omitted otherwise.

import (
	"errors"
	"fmt"
	"net/http"

	"repro/internal/tsdb"
)

// Stable error codes. Codes are append-only: a released code never
// changes meaning or disappears.
const (
	// ErrCodeBadRequest: the request is invalid in a way no single
	// parameter explains (e.g. a window that ends before it starts).
	ErrCodeBadRequest = "bad_request"
	// ErrCodeBadParam: one parameter is invalid; `param` names it.
	ErrCodeBadParam = "bad_param"
	// ErrCodeBadCursor: the cursor token is malformed, was minted by a
	// different query, or its position is no longer servable.
	ErrCodeBadCursor = "bad_cursor"
	// ErrCodeOffsetDeprecated: the request carries an `offset`
	// parameter. Offset pagination is gone; `param` is "offset".
	ErrCodeOffsetDeprecated = "offset_deprecated"
	// ErrCodeNotFound: no such endpoint or resource.
	ErrCodeNotFound = "not_found"
	// ErrCodeMethodNotAllowed: the endpoint exists but not for this
	// HTTP method (the Allow header lists the supported ones).
	ErrCodeMethodNotAllowed = "method_not_allowed"
	// ErrCodeNotPrimary: a replication-source endpoint was called on a
	// follower; re-point the puller at the primary.
	ErrCodeNotPrimary = "not_primary"
	// ErrCodeEpochMismatch: the checkpointSeq a replication file request
	// was pinned to is a stale listing position — a checkpoint landed;
	// re-list and retry. The code keeps its name because clients match
	// on it.
	ErrCodeEpochMismatch = "epoch_mismatch"
	// ErrCodeGone: the requested replication artifact was reclaimed.
	ErrCodeGone = "gone"
	// ErrCodeRateLimited: per-client rate limit exceeded (429); honor
	// Retry-After.
	ErrCodeRateLimited = "rate_limited"
	// ErrCodeOverCapacity: the global in-flight cap shed the request
	// (503); honor Retry-After.
	ErrCodeOverCapacity = "over_capacity"
	// ErrCodeStaleReplica: this follower has not synced with its
	// primary within -max-staleness; retry against the primary or
	// another replica.
	ErrCodeStaleReplica = "stale_replica"
	// ErrCodeColdReadFailed: the store could not read sealed history
	// (corrupt or missing block file) — a server-side 500, never a
	// truncated 200.
	ErrCodeColdReadFailed = "cold_read_failed"
	// ErrCodeInternal: any other server-side failure.
	ErrCodeInternal = "internal"
)

// apiError is the envelope; apiErrorBody its payload.
type apiError struct {
	Error apiErrorBody `json:"error"`
}

type apiErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Param   string `json:"param,omitempty"`
}

// errOffsetRemoved answers any request that presents an offset.
var errOffsetRemoved = errors.New("archive: offset pagination was removed; page with limit=N and follow the X-Next-Cursor header (cursor=TOKEN)")

// paramError tags an error with the request parameter it faults, so the
// envelope can carry code=bad_param with `param` set while the error
// text stays exactly what library callers see.
type paramError struct {
	param string
	err   error
}

func (e *paramError) Error() string { return e.err.Error() }
func (e *paramError) Unwrap() error { return e.err }

// badParam builds a parameter-attributed error.
func badParam(param, format string, args ...any) error {
	return &paramError{param: param, err: fmt.Errorf(format, args...)}
}

// writeAPIError writes the envelope with an explicit code.
func writeAPIError(w http.ResponseWriter, status int, code, param string, err error) {
	writeJSON(w, status, apiError{Error: apiErrorBody{Code: code, Message: err.Error(), Param: param}})
}

// classifyErr maps an error (and the status already chosen for it) onto
// the stable code set. Error identity wins over status: a bad cursor is
// bad_cursor whatever status a caller picked.
func classifyErr(status int, err error) (code, param string) {
	var pe *paramError
	switch {
	case errors.As(err, &pe):
		return ErrCodeBadParam, pe.param
	case errors.Is(err, ErrBadCursor):
		return ErrCodeBadCursor, "cursor"
	case errors.Is(err, errOffsetRemoved):
		return ErrCodeOffsetDeprecated, "offset"
	case errors.Is(err, tsdb.ErrColdRead):
		return ErrCodeColdReadFailed, ""
	}
	switch status {
	case http.StatusNotFound:
		return ErrCodeNotFound, ""
	case http.StatusMethodNotAllowed:
		return ErrCodeMethodNotAllowed, ""
	case http.StatusForbidden:
		return ErrCodeNotPrimary, ""
	case http.StatusConflict:
		return ErrCodeEpochMismatch, ""
	case http.StatusGone:
		return ErrCodeGone, ""
	case http.StatusTooManyRequests:
		return ErrCodeRateLimited, ""
	case http.StatusServiceUnavailable:
		return ErrCodeOverCapacity, ""
	case http.StatusInternalServerError:
		return ErrCodeInternal, ""
	default:
		return ErrCodeBadRequest, ""
	}
}

// writeErr writes err in the envelope, deriving the code from the error
// chain and the status. Call sites that know a more specific code use
// writeAPIError directly.
func writeErr(w http.ResponseWriter, status int, err error) {
	code, param := classifyErr(status, err)
	writeAPIError(w, status, code, param, err)
}
