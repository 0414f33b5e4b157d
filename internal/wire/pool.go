package wire

import (
	"math/bits"
	"sync"
)

// Buffer pool: power-of-two size classes from 64 B to 512 KiB, covering
// everything from a bare ACK segment to the largest pooled message
// buffer (the paper's 300 KiB farm tasks). This is the one pool shared by
// independent simulation kernels running concurrently (the parallel sweep
// runner), so it is built on sync.Pool; every other free list in the
// repository belongs to one kernel and needs no synchronization.
//
// A sync.Pool holds interface values, and storing a slice header in one
// would box it: one allocation per PutBuf. The class pools therefore hold
// *[]byte boxes, and a second pool recycles the emptied boxes, so a
// steady-state GetBuf/PutBuf pair allocates nothing while the garbage
// collector can still drain idle buffers from both pools.
//
// A sync.Pool is emptied by any two back-to-back collections, so the
// buffers a finished cluster run hands back would be gone when the next
// run starts if collections happen to fall in between. Retain, which core
// calls when a cluster run ends, therefore moves what the class pools
// hold into a set the collector does not drain; a class pool that comes
// up empty takes from that set before allocating. A run thus starts with
// the buffers the previous run returned, however many collections fell
// in between.
//
// Ownership contract: a buffer obtained from GetBuf is owned by the
// caller until handed off (e.g. as a pooled netsim.Packet payload);
// whoever holds the last reference returns it with PutBuf. PutBuf only
// recycles slices whose capacity is exactly a pool class, so returning
// a foreign or oversized buffer is harmless.
const (
	minPoolShift = 6  // 64 B
	maxPoolShift = 19 // 512 KiB
)

var (
	bufPools [maxPoolShift + 1]sync.Pool // class shift -> *[]byte holding a buffer
	boxPool  sync.Pool                   // empty *[]byte boxes

	// retained holds, per class, the boxed buffers set aside by the last
	// Retain and not taken since.
	retained struct {
		mu   sync.Mutex
		bufs [maxPoolShift + 1][]*[]byte
	}
)

// poolShift returns the size class for a buffer of length n, or -1 when
// n is outside the pooled range.
func poolShift(n int) int {
	if n <= 0 || n > 1<<maxPoolShift {
		return -1
	}
	s := bits.Len(uint(n - 1)) // ceil(log2 n)
	if s < minPoolShift {
		s = minPoolShift
	}
	return s
}

// GetBuf returns a buffer with len n, recycled when possible. Contents
// are not zeroed.
func GetBuf(n int) []byte {
	s := poolShift(n)
	if s < 0 {
		return make([]byte, n)
	}
	box, _ := bufPools[s].Get().(*[]byte)
	if box == nil {
		box = takeRetained(s)
	}
	if box == nil {
		return make([]byte, n, 1<<s)
	}
	b := *box
	*box = nil
	boxPool.Put(box)
	return b[:n]
}

// takeRetained removes and returns a retained box of class s, or nil.
func takeRetained(s int) *[]byte {
	retained.mu.Lock()
	defer retained.mu.Unlock()
	l := retained.bufs[s]
	k := len(l) - 1
	if k < 0 {
		return nil
	}
	box := l[k]
	l[k] = nil
	retained.bufs[s] = l[:k]
	return box
}

// Retain sets aside every buffer the class pools hold, where the garbage
// collector does not drain them, and releases the buffers the previous
// Retain set aside that no one has taken since. core calls it when a
// cluster run ends, so the pool carries one run's buffers into the next
// and an idle buffer lives at most one run longer. Each call builds
// fresh lists: the arrays hold pointers, and one sized for a finished
// run's working set (a farm's ten thousand queued tasks) would otherwise
// stay live, and be scanned by every collection, after the buffers are
// gone.
func Retain() {
	retained.mu.Lock()
	defer retained.mu.Unlock()
	for s := range bufPools {
		var keep []*[]byte
		for v := bufPools[s].Get(); v != nil; v = bufPools[s].Get() {
			keep = append(keep, v.(*[]byte))
		}
		retained.bufs[s] = keep
	}
}

// PutBuf returns a buffer to its pool. Only buffers whose capacity is
// exactly a pool class size are recycled; anything else is left to the
// garbage collector.
func PutBuf(b []byte) {
	c := cap(b)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	s := bits.Len(uint(c)) - 1
	if s < minPoolShift || s > maxPoolShift {
		return
	}
	box, _ := boxPool.Get().(*[]byte)
	if box == nil {
		box = new([]byte)
	}
	*box = b[:c]
	bufPools[s].Put(box)
}

// NewPooledWriter returns a Writer whose backing array comes from the
// buffer pool, sized for n bytes. The finished w.B should eventually be
// recycled with PutBuf (typically via a pooled packet payload). If the
// caller's size estimate was exact the final buffer keeps its pooled
// capacity class and recycling succeeds; if the writer grew past it the
// buffer is simply collected by the GC instead.
func NewPooledWriter(n int) *Writer {
	return &Writer{B: GetBuf(n)[:0]}
}
