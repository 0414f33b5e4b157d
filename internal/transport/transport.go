// Package transport defines the contract shared by the simulated
// transport stacks (internal/tcp, internal/sctp): a canonical error
// taxonomy and the nonblocking endpoint surface the RPI modules build
// on. The paper's argument (§3) is that an RPI is a thin binding over
// a transport; this package is the part of the binding that does not
// depend on whether the transport is byte-stream or message oriented.
//
// Each stack keeps its own package-level sentinel variables for
// compatibility, but they wrap the canonical sentinels here, so
// errors.Is(err, transport.ErrWouldBlock) matches a would-block from
// either stack and RPI code never needs stack-specific comparisons.
package transport

import "errors"

// Canonical sentinel errors. Stack-specific errors wrap exactly one of
// these (via Wrap), preserving their historical message text while
// joining the shared taxonomy.
var (
	// ErrWouldBlock reports that a nonblocking (Try*) call could make
	// no progress right now; retry after the endpoint's notify fires.
	ErrWouldBlock = errors.New("operation would block")

	// ErrClosed reports an operation on a locally closed endpoint, or
	// one whose peer completed an orderly shutdown.
	ErrClosed = errors.New("endpoint closed")

	// ErrTimeout reports that retransmission gave up (RTO exhaustion,
	// handshake failure after all retries).
	ErrTimeout = errors.New("operation timed out")

	// ErrMsgSize reports a message too large for the transport to
	// accept at once (e.g. larger than the SCTP send buffer — the §3.6
	// limitation that forces middleware-level chunking).
	ErrMsgSize = errors.New("message too large")

	// ErrAborted reports an abortive teardown by the peer (RST, ABORT
	// chunk, or communication-lost notification).
	ErrAborted = errors.New("connection aborted by peer")

	// ErrNotConnected reports an operation addressed to a peer or
	// association the endpoint does not have.
	ErrNotConnected = errors.New("not connected")

	// ErrSessionLost reports that a transport session (TCP connection
	// or SCTP association) died underneath an RPI module and recovery
	// could not restore it: the redial budget is exhausted or redialing
	// failed terminally. Modules surface it from Advance so the
	// middleware can abort the job with a diagnostic instead of
	// hanging.
	ErrSessionLost = errors.New("transport session lost")
)

// wrapped is a sentinel alias: its own message text, one canonical
// sentinel underneath for errors.Is.
type wrapped struct {
	msg      string
	sentinel error
}

func (w *wrapped) Error() string { return w.msg }
func (w *wrapped) Unwrap() error { return w.sentinel }

// Wrap returns an error whose text is msg and which errors.Is-matches
// sentinel. Stacks use it to keep their historical package-local error
// variables while adopting the canonical taxonomy.
func Wrap(sentinel error, msg string) error {
	return &wrapped{msg: msg, sentinel: sentinel}
}

// Endpoint is the nonblocking contract every transport endpoint
// satisfies and the RPI engine relies on: an event hook that fires (in
// kernel context) whenever readiness may have changed, and teardown.
// The data-moving Try* calls stay transport-specific — byte-oriented
// (TryRead/TryWrite) on TCP connections, message-oriented
// (TryRecvMsg/TrySendMsg) on SCTP sockets — and belong to each RPI
// module's transport binding.
type Endpoint interface {
	// SetNotify registers fn to be invoked whenever the endpoint's
	// readiness changes, with the edge that changed (readable,
	// writable, closed, error). fn runs in kernel context and must not
	// block. Events are edge-triggered: the stack reports transitions,
	// not levels, so a consumer that is handed ReadyRecv must drain the
	// endpoint until it would block or it will not hear about the bytes
	// already buffered. Typically fn is a Poller.Hook, which queues the
	// endpoint for the engine's proactor loop.
	SetNotify(fn func(Ready))

	// Close begins an orderly local teardown.
	Close()
}

// ByteStream is the zero-copy read surface of a byte-oriented endpoint
// (the TCP connection): framing code peeks at the contiguous in-order
// region of the receive buffer, parses in place, and consumes what it
// used — no intermediate copy, no compaction. TryRead remains for the
// cases where the caller wants bytes moved into its own buffer (message
// bodies landing directly in a pooled buffer).
type ByteStream interface {
	// Peek returns the contiguous head of the in-order receive queue
	// without consuming it. An empty slice with a nil error never
	// occurs: no data means ErrWouldBlock, EOF, or a terminal error,
	// exactly as TryRead reports them.
	Peek() ([]byte, error)

	// Discard consumes n bytes previously returned by Peek.
	Discard(n int)

	// TryRead moves up to len(b) in-order bytes into b.
	TryRead(b []byte) (int, error)
}
