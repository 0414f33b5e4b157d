// Package freelist provides the free list behind every per-message
// object the simulator reuses: kernel events, packets, protocol chunks
// and messages, transmit queue entries, MPI requests. A List belongs to
// whatever owns the objects' lifetime. Everything on one simulation
// kernel runs one actor at a time, so a List is a plain slice with no
// locking; only the wire buffer pool, which kernels running concurrently
// share, needs a sync.Pool.
//
// A List starts empty and fills with what its owner releases, so the
// first messages allocate and the steady state does not; nothing is
// sized or filled in advance.
package freelist

// List is a LIFO free list of *T. The zero value is an empty list.
type List[T any] struct {
	items []*T
}

// Get removes and returns the most recently released object, or nil
// when the list is empty. The object comes back as it was put.
func (l *List[T]) Get() *T {
	n := len(l.items)
	if n == 0 {
		return nil
	}
	x := l.items[n-1]
	l.items[n-1] = nil
	l.items = l.items[:n-1]
	return x
}

// Put releases x for reuse. The caller must hold no other reference to
// it, and should first clear fields that point at memory x no longer
// owns.
func (l *List[T]) Put(x *T) { l.items = append(l.items, x) }
