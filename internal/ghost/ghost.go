// Package ghost implements a bounded metadata-only FIFO queue.
//
// Ghost queues remember keys of recently evicted objects without holding
// their data. The paper's Quick Demotion technique uses one to distinguish
// "new" objects (which must prove themselves in the probationary FIFO) from
// objects that were demoted too quickly and deserve direct admission into
// the main cache. 2Q's A1out and LeCaR's per-expert histories are the same
// structure.
//
// The simulator and the served QD-LP-FIFO (internal/concurrent) share this
// one queue. Every key carries a cost in the owner's capacity unit: the
// simulator and entry-capped caches pass 1, byte-capped caches pass the
// object's accounted bytes.
package ghost

// entry is one ring slot: a remembered key and its cost.
type entry struct {
	key  uint64
	cost int64
}

// stale is the cost of a slot whose key has been removed.
const stale = -1

// Queue is a FIFO of keys with O(1) membership checks, bounded by the sum
// of its keys' costs. Adding a key that is already present leaves its
// queue position unchanged (FIFO semantics, not LRU). Adding a key that
// does not fit drops the oldest keys until it does.
//
// Keys live in a ring read from head to tail, so adding and dropping the
// oldest touch memory in order. Remove marks the key's slot stale instead
// of closing the gap; the slot is skipped when the head reaches it or the
// ring is compacted, and slots are reused without allocating once the ring
// has grown to its working size.
//
// The zero Queue is unusable; use New. A Queue is not safe for concurrent
// use.
type Queue struct {
	capacity int64
	used     int64
	byKey    map[uint64]int32 // remembered key → its ring slot
	ring     []entry
	head     int32 // the oldest slot
	n        int32 // slots in use from head, stale ones included
}

// New returns a ghost queue whose keys' costs sum to at most capacity. A
// capacity of 0 or less yields a queue that never retains anything (Add
// is a no-op).
func New(capacity int64) *Queue {
	if capacity < 0 {
		capacity = 0
	}
	return &Queue{capacity: capacity, byKey: make(map[uint64]int32)}
}

// Len returns the number of keys currently remembered.
func (q *Queue) Len() int { return len(q.byKey) }

// Used returns the summed cost of the remembered keys.
func (q *Queue) Used() int64 { return q.used }

// Capacity returns the bound on the summed cost of remembered keys.
func (q *Queue) Capacity() int64 { return q.capacity }

// Contains reports whether key is remembered.
func (q *Queue) Contains(key uint64) bool {
	_, ok := q.byKey[key]
	return ok
}

// Add remembers key at the given cost, forgetting the oldest keys until it
// fits. Re-adding an existing key keeps its original position and cost; a
// key costing more than the whole capacity, or less than 0, is not
// remembered.
func (q *Queue) Add(key uint64, cost int64) {
	if cost < 0 || cost > q.capacity {
		return
	}
	if _, ok := q.byKey[key]; ok {
		return
	}
	for q.used+cost > q.capacity {
		q.popHead()
	}
	if int(q.n) == len(q.ring) {
		q.makeRoom()
	}
	i := q.slot(q.n)
	q.ring[i] = entry{key: key, cost: cost}
	q.byKey[key] = i
	q.n++
	q.used += cost
}

// Remove forgets key and reports whether it was present.
func (q *Queue) Remove(key uint64) bool {
	i, ok := q.byKey[key]
	if ok {
		q.used -= q.ring[i].cost
		q.ring[i].cost = stale
		delete(q.byKey, key)
	}
	return ok
}

// Oldest returns the oldest remembered key, or ok=false when empty.
func (q *Queue) Oldest() (key uint64, ok bool) {
	for q.n > 0 && q.ring[q.head].cost == stale {
		q.popHead()
	}
	if q.n == 0 {
		return 0, false
	}
	return q.ring[q.head].key, true
}

// slot returns the ring index k slots after the head.
func (q *Queue) slot(k int32) int32 { return (q.head + k) % int32(len(q.ring)) }

// popHead drops the oldest slot, forgetting its key unless it is stale.
func (q *Queue) popHead() {
	if e := q.ring[q.head]; e.cost != stale {
		q.used -= e.cost
		delete(q.byKey, e.key)
	}
	q.head = q.slot(1)
	q.n--
}

// makeRoom frees ring slots when every slot is in use: it drops the stale
// slots in place when at least half are stale, and otherwise moves the
// live keys, in order, into a ring twice the size.
func (q *Queue) makeRoom() {
	dst, start := q.ring, q.head
	if 2*len(q.byKey) >= len(q.ring) {
		dst, start = make([]entry, max(16, 2*len(q.ring))), 0
	}
	w := int32(0)
	for k := int32(0); k < q.n; k++ {
		if i := q.slot(k); q.ring[i].cost != stale {
			j := (start + w) % int32(len(dst))
			dst[j] = q.ring[i]
			q.byKey[dst[j].key] = j
			w++
		}
	}
	q.ring, q.head, q.n = dst, start, w
}
