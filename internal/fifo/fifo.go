// Package fifo provides the ring-buffer queue behind every hot FIFO in
// the simulator: protocol send and retransmission queues, socket receive
// queues, readiness queues. A head-sliced Go slice (q = q[1:] to pop,
// append to push) reallocates every time the append reaches the end of
// an array whose front has been popped away, so a queue that is pushed
// and popped in steady state allocates forever. Queue reuses its array
// instead: it grows by doubling up to the queue's high-water mark and
// never allocates again after that.
package fifo

// Queue is a growable FIFO ring buffer. The zero value is an empty
// queue. Popped slots are zeroed at once, so the array never keeps a
// popped element alive.
type Queue[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int
	n    int
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// At returns the i-th element from the front (0 is the front).
func (q *Queue[T]) At(i int) T {
	if i < 0 || i >= q.n {
		panic("fifo: index out of range")
	}
	return q.buf[(q.head+i)&(len(q.buf)-1)]
}

// Front returns the front element without removing it.
func (q *Queue[T]) Front() T { return q.At(0) }

// Push appends v at the back.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Pop removes and returns the front element. The queue must not be
// empty.
func (q *Queue[T]) Pop() T {
	if q.n == 0 {
		panic("fifo: Pop of empty queue")
	}
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// RemoveAt removes and returns the i-th element from the front, closing
// the gap by shifting the elements behind it forward.
func (q *Queue[T]) RemoveAt(i int) T {
	v := q.At(i)
	mask := len(q.buf) - 1
	for j := i; j < q.n-1; j++ {
		q.buf[(q.head+j)&mask] = q.buf[(q.head+j+1)&mask]
	}
	var zero T
	q.buf[(q.head+q.n-1)&mask] = zero
	q.n--
	return v
}

// Clear empties the queue, keeping its array.
func (q *Queue[T]) Clear() {
	var zero T
	for i := 0; i < q.n; i++ {
		q.buf[(q.head+i)&(len(q.buf)-1)] = zero
	}
	q.head, q.n = 0, 0
}

func (q *Queue[T]) grow() {
	nbuf := make([]T, max(2*len(q.buf), 8))
	for i := 0; i < q.n; i++ {
		nbuf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = nbuf
	q.head = 0
}
