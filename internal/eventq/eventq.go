// Package eventq is the event queue shared by every discrete-event
// simulator in the repository: a binary min-heap ordered by
// (time, sequence number). The strict total order — time first, then
// insertion sequence as the tie-breaker — is what makes the
// simulators deterministic for a given seed: simultaneous events pop
// in FIFO order, never in heap-internal order.
//
// The heap is generic over the simulator's event type, so each
// simulator keeps its own plain event struct (no boxing through
// container/heap's `any`) and implements the one-line Key method.
package eventq

// Event exposes the (time, sequence) ordering key of a simulator
// event. Sequence numbers must be unique per queue, which makes the
// order strict.
type Event interface {
	Key() (t float64, seq uint64)
}

// seqBefore reports whether sequence number a was issued before b
// under modular (wraparound-safe) comparison: a precedes b when the
// forward distance from a to b is less than half the sequence space.
// A simulator that issues sequence numbers from a wrapping counter
// keeps FIFO tie-breaking as long as fewer than 2⁶³ events are in
// flight at once — a plain a < b would instead jump every pre-wrap
// event behind every post-wrap one.
func seqBefore(a, b uint64) bool { return int64(a-b) < 0 }

// Q is a binary min-heap of events ordered by (time, sequence).
// The zero value is an empty queue ready for use.
//
// Each slot caches its event's key next to the event, so the sift
// loops compare plain fields: Key is called once per Push instead of
// twice per comparison, where a call through the type parameter is
// an indirect call the compiler cannot inline.
type Q[E Event] struct {
	es []slot[E]
}

// slot is one heap entry: an event and its cached (time, sequence)
// key.
type slot[E Event] struct {
	t   float64
	seq uint64
	e   E
}

// before reports whether slot a orders before slot b.
func (a *slot[E]) before(b *slot[E]) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return seqBefore(a.seq, b.seq)
}

// Len returns the number of queued events.
func (q *Q[E]) Len() int { return len(q.es) }

// Push adds an event to the queue.
func (q *Q[E]) Push(e E) {
	t, seq := e.Key()
	s := slot[E]{t: t, seq: seq, e: e}
	q.es = append(q.es, s)
	// Sift up: move parents down into the hole until s fits.
	i := len(q.es) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.before(&q.es[parent]) {
			break
		}
		q.es[i] = q.es[parent]
		i = parent
	}
	q.es[i] = s
}

// Pop removes and returns the earliest event. It panics on an empty
// queue (callers guard with Len, as with container/heap).
func (q *Q[E]) Pop() E {
	top := q.es[0].e
	n := len(q.es) - 1
	last := q.es[n]
	q.es[n] = slot[E]{} // release references held by the vacated slot
	q.es = q.es[:n]
	if n == 0 {
		return top
	}
	// Sift down: move the earlier child up into the hole until last
	// fits.
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && q.es[right].before(&q.es[child]) {
			child = right
		}
		if !q.es[child].before(&last) {
			break
		}
		q.es[i] = q.es[child]
		i = child
	}
	q.es[i] = last
	return top
}

// NextTime returns the timestamp of the earliest queued event. It
// panics on an empty queue (callers guard with Len, as with Pop).
func (q *Q[E]) NextTime() float64 {
	return q.es[0].t
}

// PopBatch removes every event sharing the earliest queued timestamp
// — a same-time burst — and appends them to dst in (time, sequence)
// order, returning the extended slice. Passing dst[:0] reuses its
// backing array, so a simulator's event loop can drain bursts without
// per-event allocation. The appended order is exactly the order
// repeated Pop calls would produce, so switching a loop from Pop to
// PopBatch never reorders processing. An empty queue returns dst
// unchanged.
//
// Events pushed while the caller processes the batch — including new
// events at the very same timestamp — are not part of it: they pop in
// a later batch, which again matches repeated Pop (their sequence
// numbers order them after every drained event).
func (q *Q[E]) PopBatch(dst []E) []E {
	if len(q.es) == 0 {
		return dst
	}
	t0 := q.es[0].t
	for {
		dst = append(dst, q.Pop())
		if len(q.es) == 0 || q.es[0].t != t0 {
			return dst
		}
	}
}
