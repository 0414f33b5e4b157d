package wire

// BipBuffer is a two-region ("bip") byte queue in the style of sonic's
// bip_buffer/mirrored_buffer: the writer claims a contiguous free
// region and commits what it filled; the reader peeks at the contiguous
// head region and consumes what it used. Unlike a ring buffer it never
// hands out a region that wraps, and unlike an append/slide buffer it
// never compacts: consuming from the front is pointer arithmetic, and a
// partially parsed message left in the buffer stays where it is.
//
// Region A is buf[head : head+aLen]; region B, active only when the
// writer wrapped, is buf[0 : bLen] with bLen <= head. Readers see A
// first; when A drains, B is promoted to A in O(1).
//
// The backing array grows geometrically up to max (an amortized
// allocate-and-copy, not a steady-state compaction), so idle endpoints
// pay only a small footprint while busy ones converge on a fixed
// allocation that is never copied again.
type BipBuffer struct {
	buf      []byte
	head     int // start of region A
	aLen     int // length of region A
	bLen     int // length of region B (0 = no wrap)
	max      int // capacity ceiling
	claimOff int // start of the outstanding claim, -1 if none
}

// NewBipBuffer returns a buffer that grows on demand up to max bytes.
func NewBipBuffer(max int) *BipBuffer {
	if max < 1 {
		max = 1
	}
	return &BipBuffer{max: max, claimOff: -1}
}

// Len returns the number of buffered bytes.
func (b *BipBuffer) Len() int { return b.aLen + b.bLen }

// Claim returns a writable region of up to n contiguous free bytes —
// possibly shorter, empty only when the buffer is full at its ceiling.
// Following the bip discipline, it prefers the space after region A
// unless the space before head is strictly larger, which is what keeps
// regions contiguous without ever moving buffered bytes. The claim must
// be finished with Commit before the next Claim.
func (b *BipBuffer) Claim(n int) []byte {
	if n <= 0 {
		return nil
	}
	if b.bLen > 0 {
		// Already wrapped: writes must extend region B (FIFO order), so
		// the only usable space is between B and A.
		if avail := b.head - b.bLen; avail > 0 {
			return b.claim(b.bLen, avail, n)
		}
		b.grow(n)
		if b.bLen > 0 {
			return nil // at the ceiling and truly full
		}
		// grow linearized A+B; fall through to the unwrapped path.
	}
	tail := len(b.buf) - (b.head + b.aLen)
	if tail < n && b.head <= tail {
		b.grow(n - tail)
		tail = len(b.buf) - (b.head + b.aLen)
	}
	if tail >= n || tail >= b.head {
		return b.claim(b.head+b.aLen, tail, n)
	}
	return b.claim(0, b.head, n) // wrap: open region B
}

func (b *BipBuffer) claim(off, avail, n int) []byte {
	if avail > n {
		avail = n
	}
	if avail <= 0 {
		return nil
	}
	b.claimOff = off
	return b.buf[off : off+avail]
}

// Commit records that n bytes of the last Claim were filled.
func (b *BipBuffer) Commit(n int) {
	if n < 0 || b.claimOff < 0 {
		panic("wire: BipBuffer.Commit without a claim")
	}
	if n > 0 {
		if b.claimOff == b.head+b.aLen && b.bLen == 0 {
			b.aLen += n
		} else {
			b.bLen += n
		}
	}
	b.claimOff = -1
}

// Write copies data in, claiming and committing as needed (at most two
// regions). It returns the number of bytes accepted, which is less than
// len(data) only when the buffer is full at its ceiling.
func (b *BipBuffer) Write(data []byte) int {
	total := 0
	for len(data) > 0 {
		r := b.Claim(len(data))
		if len(r) == 0 {
			b.claimOff = -1
			break
		}
		n := copy(r, data)
		b.Commit(n)
		data = data[n:]
		total += n
	}
	return total
}

// Head returns the contiguous readable head region (empty when no data
// is buffered). The slice is valid until the next Consume or Write.
func (b *BipBuffer) Head() []byte {
	return b.buf[b.head : b.head+b.aLen]
}

// Consume discards n bytes from the front; n must not exceed
// len(Head()). When region A drains, region B becomes the new A —
// no bytes move.
func (b *BipBuffer) Consume(n int) {
	if n < 0 || n > b.aLen {
		panic("wire: BipBuffer.Consume beyond head region")
	}
	b.head += n
	b.aLen -= n
	if b.aLen == 0 {
		b.head, b.aLen, b.bLen = 0, b.bLen, 0
	}
}

// grow enlarges the backing array by at least need bytes (geometric,
// capped at max), linearizing the buffered bytes into the new array.
// Only the writer path triggers this; steady-state traffic that fits
// the high-water mark never copies.
func (b *BipBuffer) grow(need int) {
	want := len(b.buf) + need
	newCap := 2 * len(b.buf)
	if newCap < 256 {
		newCap = 256
	}
	for newCap < want {
		newCap *= 2
	}
	if newCap > b.max {
		newCap = b.max
	}
	if newCap <= len(b.buf) {
		return // already at the ceiling
	}
	nb := make([]byte, newCap)
	n := copy(nb, b.buf[b.head:b.head+b.aLen])
	n += copy(nb[n:], b.buf[:b.bLen])
	b.buf = nb
	b.head, b.aLen, b.bLen = 0, n, 0
}
