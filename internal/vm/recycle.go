package vm

import (
	"sync"
	"sync/atomic"
)

// recycler keeps released working memory for reuse: one slot, backed
// by a sync.Pool. The slot holds its value across garbage collections,
// so one caller's steady state stops allocating once its buffers have
// grown to fit its programs; a pool alone loses them to every second
// collection, and under the race detector to random drops. The slot
// takes only a value smaller than slotBytes, so one huge run or
// compile does not pin its memory for the life of the process. Larger
// values and concurrent callers' overflow go to the pool, which drops
// what two collections find idle.
type recycler[T any] struct {
	slot atomic.Pointer[T]
	pool sync.Pool
}

// slotBytes bounds the value a slot keeps, by its owner's size
// estimate. The largest suite program's scratch reads about 26 KB; a
// machine holds 8 bytes per register and array cell.
const slotBytes = 1 << 20

// get returns a recycled value, or a new zero one. It tries the slot
// first, so a single caller never touches the pool, whose first use
// after a collection allocates its per-processor lists.
func (r *recycler[T]) get() *T {
	if v := r.slot.Swap(nil); v != nil {
		return v
	}
	if v := r.pool.Get(); v != nil {
		return v.(*T)
	}
	return new(T)
}

// put recycles v, whose buffers hold about size bytes: into the slot
// when v is small enough and the slot is empty, else into the pool.
// The caller has already dropped every reference v held beyond its own
// buffers.
func (r *recycler[T]) put(v *T, size int) {
	if size < slotBytes && r.slot.CompareAndSwap(nil, v) {
		return
	}
	r.pool.Put(v)
}
