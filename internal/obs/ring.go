package obs

import "sync"

// ring is a bounded in-memory ring: appending beyond its capacity evicts
// the oldest entry, so a long-running daemon's history stays fresh and
// its memory stays bounded. It counts every entry ever appended.
type ring[T any] struct {
	mu sync.Mutex
	//lint:guarded-by mu
	buf []T
	// head is the index of the oldest entry when full.
	//
	//lint:guarded-by mu
	head int
	// total counts every entry ever appended, retained or evicted.
	//
	//lint:guarded-by mu
	total int64
	max   int
}

func newRing[T any](capacity int) ring[T] {
	return ring[T]{max: max(capacity, 1)}
}

// pushLocked appends v, evicting the oldest entry when full. The caller
// holds mu.
func (r *ring[T]) pushLocked(v T) {
	r.total++
	if len(r.buf) < r.max {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.head] = v
	r.head = (r.head + 1) % r.max
}

// entries returns a copy of the retained entries, oldest first.
func (r *ring[T]) entries() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	return append(out, r.buf[:r.head]...)
}
