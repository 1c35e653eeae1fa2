// Package minheap is the code base's one heap: a typed binary min-heap
// over a slice of values. The virtual clock keeps its events in one (value
// elements, so scheduling an event allocates nothing) and the placement
// index one load heap per capability class (pointer elements that learn
// their slot through Moved, so an entry can be fixed or removed in place).
package minheap

// Heap is a binary min-heap ordered by Less. Set Less (and optionally
// Moved) before the first Push; the zero value is otherwise ready.
type Heap[T any] struct {
	// Less reports whether a sorts strictly before b.
	Less func(a, b T) bool
	// Moved, when non-nil, is told every element's new slot (-1 once it
	// has left the heap).
	Moved func(x T, i int)

	s []T
}

// Len returns the number of elements.
func (h *Heap[T]) Len() int { return len(h.s) }

// At returns the element in slot i. Slot 0 is the minimum; the children
// of slot i are 2i+1 and 2i+2.
func (h *Heap[T]) At(i int) T { return h.s[i] }

// Push adds x.
func (h *Heap[T]) Push(x T) {
	h.s = append(h.s, x)
	h.settle(len(h.s)-1, x)
}

// Pop removes and returns the minimum.
func (h *Heap[T]) Pop() T { return h.Remove(0) }

// Remove removes and returns the element in slot i.
func (h *Heap[T]) Remove(i int) T {
	out, last := h.s[i], len(h.s)-1
	x := h.s[last]
	clear(h.s[last:]) // drop the reference (an event's callback, a node's entry)
	h.s = h.s[:last]
	if i < last {
		h.settle(i, x)
	}
	if h.Moved != nil {
		h.Moved(out, -1)
	}
	return out
}

// Fix restores the order after the element in slot i changed its key.
func (h *Heap[T]) Fix(i int) { h.settle(i, h.s[i]) }

// settle places x, for which slot i is free, where the order wants it:
// the hole rises while x sorts before its parent, then sinks while a
// child sorts before x (which it never does after a rise).
func (h *Heap[T]) settle(i int, x T) {
	for p := (i - 1) / 2; i > 0 && h.Less(x, h.s[p]); i, p = p, (p-1)/2 {
		h.put(i, h.s[p])
	}
	for c := 2*i + 1; c < len(h.s); c = 2*i + 1 {
		if c+1 < len(h.s) && h.Less(h.s[c+1], h.s[c]) {
			c++
		}
		if !h.Less(h.s[c], x) {
			break
		}
		h.put(i, h.s[c])
		i = c
	}
	h.put(i, x)
}

func (h *Heap[T]) put(i int, x T) {
	h.s[i] = x
	if h.Moved != nil {
		h.Moved(x, i)
	}
}
