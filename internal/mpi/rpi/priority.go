package rpi

// Priority classes for RFC 8260 chunk-interleaved transports. The
// paper's head-of-line observation stops at stream granularity; with
// I-DATA a scheduler can also keep a bulk fragment train from delaying
// a latency-sensitive envelope on another stream, provided the
// middleware tells the transport which streams carry what. The mapping
// is by message kind: rendezvous bodies are bulk, eager payloads are
// latency-sensitive, and bodiless control traffic (ACKs, rendezvous
// handshakes) is the most urgent of all — a delayed LongAck stalls an
// entire transfer.
const (
	ClassControl uint8 = 0 // bodiless control: SyncAck, LongReq, LongAck, ...
	ClassEager   uint8 = 1 // short/sync eager payloads
	ClassBulk    uint8 = 2 // rendezvous long-message bodies
)

// ClassFor maps a message kind to its stream priority class (0 is most
// urgent, matching the transport scheduler's convention).
func ClassFor(k Kind) uint8 {
	switch k {
	case KindLongBody:
		return ClassBulk
	case KindShort, KindSync:
		return ClassEager
	default:
		return ClassControl
	}
}
