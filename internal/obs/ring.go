package obs

// Ring keeps the newest values pushed into it, up to a fixed bound, and
// counts the older ones it evicted. It is the bounded buffer under
// the observers that keep their newest entries: the sampler's rows, the
// flight recorder and the decision recorder. Storage grows on demand up to
// the bound, so a large bound costs nothing until it is used.
//
// A Ring is built with NewRing and is not safe for concurrent use.
type Ring[T any] struct {
	buf     []T
	max     int
	head    int // index of the oldest value once the ring is full
	evicted uint64
}

// NewRing builds a ring retaining the newest capacity values (capacity must
// be positive).
func NewRing[T any](capacity int) Ring[T] {
	if capacity < 1 {
		panic("obs: ring capacity must be positive")
	}
	return Ring[T]{max: capacity}
}

// Push appends v, evicting the oldest value when the ring is full. It
// returns the evicted value and true, or the zero value and false while the
// ring still has room.
func (r *Ring[T]) Push(v T) (old T, evicted bool) {
	if len(r.buf) < r.max {
		r.buf = append(r.buf, v)
		return old, false
	}
	old, r.buf[r.head] = r.buf[r.head], v
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
	r.evicted++
	return old, true
}

// Len returns the number of retained values.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Evicted returns how many values Push has evicted.
func (r *Ring[T]) Evicted() uint64 { return r.evicted }

// At returns the i-th retained value, oldest first (0 ≤ i < Len).
func (r *Ring[T]) At(i int) T {
	if i < 0 || i >= len(r.buf) {
		panic("obs: ring index out of range")
	}
	if i += r.head; i >= len(r.buf) {
		i -= len(r.buf)
	}
	return r.buf[i]
}

// All returns a copy of the retained values, oldest first (empty, not nil,
// when nothing is retained).
func (r *Ring[T]) All() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	return append(out, r.buf[:r.head]...)
}
