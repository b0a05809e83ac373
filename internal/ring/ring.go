// Package ring provides a growable FIFO backed by a circular buffer. It
// exists for the simulator's hot accumulators (filter pipelines, merge
// buffers, scratchpad response queues, DRAM burst queues): the idiomatic
// `q = append(q, x)` / `q = q[1:]` pattern re-allocates the backing array
// every wrap-around and was one of the dominant allocation sources in the
// cycle loop. A Queue reuses its storage forever — steady-state push/pop is
// allocation-free — while keeping strict FIFO order, so swapping it in is
// behavior-preserving. Slots, the package's slot arena, does the same for
// components' in-flight request state.
package ring

import "reflect"

// Queue is a FIFO of T. The zero value is an empty queue ready for use.
// It is not synchronized; each simulator component owns its queues.
type Queue[T any] struct {
	buf  []T
	head int
	n    int
	// clear caches whether dropped slots must be zeroed so they do not pin
	// garbage: 0 = undetermined, 1 = T holds pointers (clear), 2 = T is
	// pointer-free (skip — zeroing a large flit struct on every drop was a
	// measurable fraction of the cycle loop).
	clear int8
}

func (q *Queue[T]) mustClear() bool {
	if q.clear == 0 {
		var z *T
		if typeHasPointers(reflect.TypeOf(z).Elem()) {
			q.clear = 1
		} else {
			q.clear = 2
		}
	}
	return q.clear == 1
}

// typeHasPointers reports whether values of t contain any pointer the
// garbage collector traces. Unknown kinds conservatively count as pointers.
func typeHasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return typeHasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if typeHasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return true
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// Empty reports whether the queue holds no elements.
func (q *Queue[T]) Empty() bool { return q.n == 0 }

// At returns a pointer to the i-th element from the front (0 = front). The
// pointer is valid until the element is popped or the queue grows.
func (q *Queue[T]) At(i int) *T {
	if i < 0 || i >= q.n {
		panic("ring: index out of range")
	}
	p := q.head + i
	if p >= len(q.buf) {
		p -= len(q.buf)
	}
	return &q.buf[p]
}

// Front returns a pointer to the front element. Panics when empty.
func (q *Queue[T]) Front() *T { return q.At(0) }

// Push appends v at the back. The slot is fully overwritten, so no
// pre-clearing is needed.
func (q *Queue[T]) Push(v T) { *q.PushRefDirty() = v }

// PushRef grows the queue by one zeroed element at the back and returns a
// pointer to it, letting callers build large elements in place instead of
// copying them through the stack.
func (q *Queue[T]) PushRef() *T {
	s := q.PushRefDirty()
	var zero T
	*s = zero
	return s
}

// PushRefDirty is PushRef without the zeroing: the returned slot may hold
// the remains of a previously dropped element, so the caller must assign
// every field it will later read. This is the right call for hot paths that
// fully overwrite the slot anyway.
func (q *Queue[T]) PushRefDirty() *T {
	if q.n == len(q.buf) {
		q.grow()
	}
	p := q.head + q.n
	if p >= len(q.buf) {
		p -= len(q.buf)
	}
	q.n++
	return &q.buf[p]
}

// Pop removes and returns the front element. Panics when empty.
func (q *Queue[T]) Pop() T {
	v := *q.Front()
	q.Drop()
	return v
}

// Drop removes the front element without copying it out. Panics when empty.
func (q *Queue[T]) Drop() {
	if q.n == 0 {
		panic("ring: drop on empty queue")
	}
	if q.mustClear() {
		// Zero the slot so queued pointers do not pin garbage.
		var zero T
		q.buf[q.head] = zero
	}
	q.head++
	if q.head >= len(q.buf) {
		q.head = 0
	}
	q.n--
}

// DropN removes the front n elements.
func (q *Queue[T]) DropN(n int) {
	for i := 0; i < n; i++ {
		q.Drop()
	}
}

// BackingID identifies the current backing array (its first slot's
// address), or nil before the first push. It exists for white-box
// allocation probes that assert a queue stops reallocating at steady
// state; it is not useful for reading queue contents.
func (q *Queue[T]) BackingID() *T {
	if len(q.buf) == 0 {
		return nil
	}
	return &q.buf[0]
}

// Reset empties the queue, keeping the backing storage.
func (q *Queue[T]) Reset() {
	var zero T
	for i := 0; i < q.n; i++ {
		*q.At(i) = zero
	}
	q.head, q.n = 0, 0
}

// grow doubles the backing array.
func (q *Queue[T]) grow() { q.Reserve(max(2*len(q.buf), 8)) }

// Reserve grows the backing array to hold at least n elements, unwrapping
// the ring so order is kept. A queue whose peak population is known up
// front can reserve it once and never grow in the hot loop.
//
// lint:hotalloc-ok — classic amortized doubling when reached from grow:
// each element is copied at most twice over the queue's lifetime, and a
// queue that has reached its steady-state population never grows again
// (the runtime AllocsPerRun gates in internal/sim pin this down
// dynamically).
func (q *Queue[T]) Reserve(n int) {
	if n <= len(q.buf) {
		return
	}
	buf := make([]T, n)
	for i := 0; i < q.n; i++ {
		buf[i] = *q.At(i)
	}
	q.buf = buf
	q.head = 0
}
