package sctp

import (
	"errors"
	"time"

	"repro/internal/transport"
)

// Errors returned by the socket API. The cross-stack conditions wrap
// their canonical internal/transport sentinels so errors.Is matches
// either stack's variant; purely SCTP-specific conditions remain local.
var (
	ErrWouldBlock  = transport.Wrap(transport.ErrWouldBlock, "sctp: operation would block")
	ErrMsgSize     = transport.Wrap(transport.ErrMsgSize, "sctp: message exceeds send buffer size")
	ErrClosed      = transport.Wrap(transport.ErrClosed, "sctp: socket closed")
	ErrAborted     = transport.Wrap(transport.ErrAborted, "sctp: association aborted")
	ErrTimeout     = transport.Wrap(transport.ErrTimeout, "sctp: association timed out")
	ErrNoAssoc     = transport.Wrap(transport.ErrNotConnected, "sctp: no such association")
	ErrBadStream   = errors.New("sctp: invalid stream number")
	ErrPortInUse   = errors.New("sctp: port in use")
	ErrInitFailed  = errors.New("sctp: association setup failed")
	ErrStaleCookie = errors.New("sctp: stale cookie")
)

// Config holds per-socket tunables. Zero values select the documented
// defaults.
type Config struct {
	SndBuf int // send buffer bytes (default 64 KiB; experiments use 220 KiB)
	RcvBuf int // receive buffer / advertised rwnd (default 64 KiB; 220 KiB in experiments)

	Streams int // outbound/inbound streams per association (default 10, the paper's pool)

	RTOInitial time.Duration // default 3 s (RFC 4960)
	RTOMin     time.Duration // default 1 s
	RTOMax     time.Duration // default 60 s

	SackEveryPkts int // SACK at least every n packets (default 2)

	PathMaxRetrans  int           // per-path error threshold (default 5)
	AssocMaxRetrans int           // association error threshold (default 10)
	HBInterval      time.Duration // heartbeat interval for idle paths (default 30 s)
	HBDisable       bool

	// ChecksumVerify enables CRC32c verification on receive. The paper
	// turned the CRC off in the kernel so checksum cost would not skew
	// results; the default here mirrors that (checksums are still
	// computed on send for wire realism, but not charged as CPU cost).
	ChecksumVerify bool

	// AckCountingCwnd is an ablation switch: grow the congestion window
	// per SACK received (TCP-style ack counting) instead of by bytes
	// acknowledged, removing one of the advantages §4.1.1 credits for
	// SCTP's loss resilience.
	AckCountingCwnd bool

	// Probe, when non-nil, receives protocol-event callbacks (delivery
	// order, cumulative-TSN advance, congestion-window changes, path
	// failover). The chaos harness installs its invariant oracles here.
	Probe *Probe

	// IData enables RFC 8260 user-message interleaving: fragmented
	// messages are sent as I-DATA chunks keyed by (stream, MID, FSN), so
	// one stream's large message no longer monopolizes the TSN space and
	// other streams' chunks can be interleaved between its fragments.
	// The capability is negotiated at handshake; an association falls
	// back to legacy DATA chunks unless both endpoints enable it.
	IData bool

	// Scheduler selects the sender-side stream scheduler used when
	// I-DATA is negotiated (default SchedFIFO, the legacy global arrival
	// order). Ignored on legacy DATA associations, whose fragments must
	// occupy consecutive TSNs.
	Scheduler SchedPolicy

	// CMT enables Concurrent Multipath Transfer: new data is striped
	// across all active paths instead of using only the primary. This
	// is the University of Delaware extension the paper's §2.1 and §5
	// describe as upcoming ("will be available as a sysctl option by
	// the end of year 2005"). Includes a split-fast-retransmit rule so
	// cross-path reordering does not trigger spurious retransmissions.
	CMT bool
}

// Protocol constants: the RFC 4960 defaults the paper's KAME stack ran.
const (
	sackDelay        = 200 * time.Millisecond // delayed SACK timer
	fastRtxThreshold = 3                      // missing reports before fast retransmit
	cookieLifetime   = 60 * time.Second       // valid cookie life
	initRetries      = 8                      // INIT / COOKIE-ECHO retransmissions
)

func (c Config) withDefaults() Config {
	if c.SndBuf == 0 {
		c.SndBuf = 64 << 10
	}
	if c.RcvBuf == 0 {
		c.RcvBuf = 64 << 10
	}
	if c.Streams == 0 {
		c.Streams = 10
	}
	if c.RTOInitial == 0 {
		c.RTOInitial = 3 * time.Second
	}
	if c.RTOMin == 0 {
		c.RTOMin = time.Second
	}
	if c.RTOMax == 0 {
		c.RTOMax = 60 * time.Second
	}
	if c.SackEveryPkts == 0 {
		c.SackEveryPkts = 2
	}
	if c.PathMaxRetrans == 0 {
		c.PathMaxRetrans = 5
	}
	if c.AssocMaxRetrans == 0 {
		c.AssocMaxRetrans = 10
	}
	if c.HBInterval == 0 {
		c.HBInterval = 30 * time.Second
	}
	return c
}
