package serve

import "slices"

// dueHeap is a shard's indexed min-heap of its objects keyed on when each
// one's scheduler can next act (live.Incremental.Due): the next epoch
// boundary, the next oblivious slot start, or +Inf.  An admission pops
// only the objects its clock has reached, so it costs in proportion to
// what changes, not to the shard's catalog.  Objects are named by their
// shard position (objectState.pos); pos[k] is object k's heap index.
// The arrays grow only while objects are added, before the loop starts,
// so the admit path never allocates.
type dueHeap struct {
	items []dueItem
	pos   []int32
}

// dueItem is one object's heap entry: its shard position and the time
// its scheduler is due.
type dueItem struct {
	at float64
	k  int32
}

// grow makes room for n objects.
func (h *dueHeap) grow(n int) {
	h.items = slices.Grow(h.items, n-len(h.items))
	h.pos = slices.Grow(h.pos, n-len(h.pos))
}

// add inserts object k, the next shard position, due at at.
func (h *dueHeap) add(k int32, at float64) {
	h.pos = append(h.pos, int32(len(h.items)))
	h.items = append(h.items, dueItem{at: at, k: k})
	h.up(len(h.items) - 1)
}

// set re-keys object k to at.
//
//modlint:noalloc
func (h *dueHeap) set(k int32, at float64) {
	i := int(h.pos[k])
	old := h.items[i].at
	h.items[i].at = at
	if at < old {
		h.up(i)
	} else {
		h.down(i)
	}
}

// dueAt appends to buf the heap index of every object due at or before
// t, in increasing index order: the due entries are the top of the heap,
// so a breadth-first walk finds them in O(due) and visits indexes level
// by level, left to right.
//
//modlint:noalloc
func (h *dueHeap) dueAt(t float64, buf []int32) []int32 {
	if len(h.items) == 0 || h.items[0].at > t {
		return buf
	}
	from := len(buf)
	buf = append(buf, 0)
	for j := from; j < len(buf); j++ {
		for c := 2*buf[j] + 1; c <= 2*buf[j]+2 && int(c) < len(h.items); c++ {
			if h.items[c].at <= t {
				buf = append(buf, c)
			}
		}
	}
	return buf
}

// object returns the shard position of the object at heap index i.
func (h *dueHeap) object(i int32) int32 { return h.items[i].k }

// rekey sets the key of a due object, one whose heap index dueAt
// returned, to a later time, leaving heap order to settle.
//
//modlint:noalloc
func (h *dueHeap) rekey(k int32, at float64) {
	h.items[h.pos[k]].at = at
}

// settle restores heap order once every index dueAt returned is rekeyed.
// It sifts them down in decreasing order, as heapify does: each sift
// passes only indexes already settled or never due, and moves none still
// to come, so settling every object costs O(objects), not
// O(objects log objects).
//
//modlint:noalloc
func (h *dueHeap) settle(idx []int32) {
	for j := len(idx) - 1; j >= 0; j-- {
		h.down(int(idx[j]))
	}
}

//modlint:noalloc
func (h *dueHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.pos[h.items[i].k] = int32(i)
	h.pos[h.items[j].k] = int32(j)
}

//modlint:noalloc
func (h *dueHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h.items[p].at <= h.items[i].at {
			return
		}
		h.swap(p, i)
		i = p
	}
}

//modlint:noalloc
func (h *dueHeap) down(i int) {
	for {
		l, r, small := 2*i+1, 2*i+2, i
		if l < len(h.items) && h.items[l].at < h.items[small].at {
			small = l
		}
		if r < len(h.items) && h.items[r].at < h.items[small].at {
			small = r
		}
		if small == i {
			return
		}
		h.swap(i, small)
		i = small
	}
}
