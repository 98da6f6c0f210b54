package cosim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"

	"castanet/internal/ipc"
)

// ErrorClass partitions coupling failures into the four failure domains
// of the link: each calls for a different reaction (retry, abort, clean
// shutdown, bug report).
type ErrorClass int

const (
	// ClassTimeout: the peer did not answer within the configured
	// interval — watchdog expiry, retransmit exhaustion, heartbeat loss.
	// Transient: a fresh session may succeed.
	ClassTimeout ErrorClass = iota
	// ClassClosed: the link was torn down (locally or by the peer).
	// Transient in the same sense.
	ClassClosed
	// ClassCorrupt: a frame failed validation and no reliability envelope
	// was there to recover it. Results downstream are suspect.
	ClassCorrupt
	// ClassProtocol: the peer answered with something the protocol does
	// not allow (undeclared kind, entity rejection, causality violation).
	// Not transient — retrying resends the same poison.
	ClassProtocol
)

// String implements fmt.Stringer.
func (c ErrorClass) String() string {
	switch c {
	case ClassTimeout:
		return "timeout"
	case ClassClosed:
		return "closed"
	case ClassCorrupt:
		return "corrupt"
	case ClassProtocol:
		return "protocol"
	}
	return fmt.Sprintf("ErrorClass(%d)", int(c))
}

// CouplingError is the structured failure type of the coupling layer: a
// class for dispatch, the operation that failed, and the underlying
// cause. It replaces the stringly errors that previously leaked out of
// Remote and EntityServer.
type CouplingError struct {
	Class ErrorClass
	Op    string // "send", "recv", "serve", "dial", "entity", "reconnect"
	Err   error
}

// Error implements error.
func (e *CouplingError) Error() string {
	return fmt.Sprintf("cosim: coupling %s during %s: %v", e.Class, e.Op, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *CouplingError) Unwrap() error { return e.Err }

// Classify maps an underlying transport or protocol error to its class.
func Classify(err error) ErrorClass {
	switch {
	case errors.Is(err, ipc.ErrTimeout):
		return ClassTimeout
	case errors.Is(err, ipc.ErrClosed), errors.Is(err, io.EOF),
		errors.Is(err, io.ErrUnexpectedEOF):
		return ClassClosed
	case errors.Is(err, ipc.ErrBadFrame):
		return ClassCorrupt
	default:
		// Network-stack failures (reset, refused, timeout) count as link
		// loss: the message never legally arrived, so a reconnect may
		// recover.
		var ne net.Error
		if errors.As(err, &ne) {
			if ne.Timeout() {
				return ClassTimeout
			}
			return ClassClosed
		}
		var oe *net.OpError
		if errors.As(err, &oe) {
			return ClassClosed
		}
		return ClassProtocol
	}
}

// coupErr wraps err as a CouplingError unless it already is one.
func coupErr(op string, err error) error {
	var ce *CouplingError
	if errors.As(err, &ce) {
		return err
	}
	return &CouplingError{Class: Classify(err), Op: op, Err: err}
}

// IsTransient reports whether the failure is worth a reconnect attempt:
// timeouts and closed links may heal; corrupt or protocol failures will
// only repeat.
func IsTransient(err error) bool {
	var ce *CouplingError
	if errors.As(err, &ce) {
		return ce.Class == ClassTimeout || ce.Class == ClassClosed
	}
	c := Classify(err)
	return c == ClassTimeout || c == ClassClosed
}

// Retryable reports whether a failed run may be re-attempted by a
// supervisor: the failure came from the infrastructure (a hung or torn
// link), not from the design under verification. A verification mismatch
// is the product, not noise, so ClassCorrupt, ClassProtocol and every
// untyped error are final. Errors can override the classification by
// implementing Retryable() bool (see MarkRetryable).
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	var r interface{ Retryable() bool }
	if errors.As(err, &r) {
		return r.Retryable()
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var ce *CouplingError
	if errors.As(err, &ce) {
		return ce.Class == ClassTimeout || ce.Class == ClassClosed
	}
	return false
}

// retryableError brands an error infra-transient for Retryable while
// leaving errors.Is/As identity and text untouched.
type retryableError struct{ err error }

func (e *retryableError) Error() string   { return e.err.Error() }
func (e *retryableError) Unwrap() error   { return e.err }
func (e *retryableError) Retryable() bool { return true }

// MarkRetryable wraps err so Retryable reports true for it, for
// infrastructure failures that carry no CouplingError type of their own.
// A nil err passes through.
func MarkRetryable(err error) error {
	if err == nil {
		return nil
	}
	return &retryableError{err: err}
}
