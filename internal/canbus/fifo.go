package canbus

// fifo is a slice-backed first-in-first-out queue that reuses its
// array instead of reslicing it away: a head index marks the oldest
// element, a popped slot is zeroed so the queue never keeps a consumed
// frame's bytes alive, and a drained queue restarts at the start of
// its array. It is not safe for concurrent use; its owners lock
// around it.
type fifo[T any] struct {
	buf  []T // buf[head:] is the queue
	head int
}

// len returns the number of queued elements.
func (q *fifo[T]) len() int { return len(q.buf) - q.head }

// front returns the oldest element; the queue must not be empty.
func (q *fifo[T]) front() *T { return &q.buf[q.head] }

// push appends v. A full array whose consumed prefix is at least half
// of it is compacted in place before append could grow it, so every
// element is copied O(1) times amortized and the array stays within a
// small factor of the peak depth.
func (q *fifo[T]) push(v T) {
	if len(q.buf) == cap(q.buf) && 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// pop removes and returns the oldest element; the queue must not be
// empty.
func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}
