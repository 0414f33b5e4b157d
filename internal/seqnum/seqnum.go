// Package seqnum implements 32-bit serial number arithmetic (in the
// style of RFC 1982) shared by the TCP sequence space and the SCTP
// TSN/SSN spaces. Comparisons are made modulo 2^32, so values that wrap
// compare correctly as long as they are within half the space of each
// other.
package seqnum

// V is a 32-bit serial number.
type V uint32

// Add returns s advanced by n, wrapping modulo 2^32.
func (s V) Add(n uint32) V { return s + V(n) }

// Sub returns the forward distance from o to s (s - o) modulo 2^32.
// It is only meaningful when o is "before or equal to" s.
func (s V) Sub(o V) uint32 { return uint32(s - o) }

// Less reports whether s is strictly before o in serial order.
func (s V) Less(o V) bool { return int32(s-o) < 0 }

// LessEq reports whether s is before or equal to o in serial order.
func (s V) LessEq(o V) bool { return int32(s-o) <= 0 }

// Greater reports whether s is strictly after o in serial order.
func (s V) Greater(o V) bool { return int32(s-o) > 0 }

// GreaterEq reports whether s is after or equal to o in serial order.
func (s V) GreaterEq(o V) bool { return int32(s-o) >= 0 }

// InWindow reports whether s lies in the half-open window
// [first, first+size).
func (s V) InWindow(first V, size uint32) bool {
	return s.GreaterEq(first) && s.Less(first.Add(size))
}

// Max returns the serial-order maximum of a and b.
func Max(a, b V) V {
	if a.Greater(b) {
		return a
	}
	return b
}

// Min returns the serial-order minimum of a and b.
func Min(a, b V) V {
	if a.Less(b) {
		return a
	}
	return b
}

// S16 is a 16-bit serial number (SCTP stream sequence numbers).
type S16 uint16

// Less reports whether s is strictly before o in serial order.
func (s S16) Less(o S16) bool { return int16(s-o) < 0 }

// Greater reports whether s is strictly after o in serial order.
func (s S16) Greater(o S16) bool { return int16(s-o) > 0 }

// MID is a 32-bit user message identifier (RFC 8260 I-DATA). Like the
// TSN it is assigned monotonically per stream and wraps modulo 2^32, so
// it must be compared with the serial-order helpers.
type MID uint32

// Less reports whether m is strictly before o in serial order.
func (m MID) Less(o MID) bool { return int32(m-o) < 0 }

// FSN is a 32-bit fragment sequence number within one user message
// (RFC 8260 I-DATA). Fragments are numbered 0..n-1; the space wraps
// modulo 2^32 like every other serial number here.
type FSN uint32
