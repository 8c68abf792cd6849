package concurrent

import (
	"sync"
	"sync/atomic"

	"repro/internal/ghost"
	"repro/internal/obs"
)

// kind selects the algorithm a cache runs; the per-algorithm decisions
// live in policy.go, everything else is shared.
type kind uint8

const (
	kindClock kind = iota
	kindLRU
	kindQDLP
	kindSieve
)

// kindNames is indexed by kind and sorted, so it doubles as Names().
var kindNames = [...]string{"clock", "lru", "qdlp", "sieve"}

// Arena layout: nodes 0 and 1 of every shard's arena are the sentinels
// closing its two queues. LRU, CLOCK and SIEVE use queue 0; QD-LP-FIFO
// uses queue 0 as its probationary FIFO and queue 1 as its CLOCK main.
const (
	none      int32 = -1
	probation int32 = 0
	mainQueue int32 = 1
	sentinels       = 2
)

// node is one cached object in a shard's arena. Links are arena indices,
// so the arena holds no pointers for the garbage collector to scan and a
// freed node is reused without allocating.
type node struct {
	key   uint64
	value uint64
	prev  int32 // toward the front (newer)
	next  int32 // toward the back (older)
	// freq is the CLOCK counter (SIEVE's visited bit, QD-LP-FIFO's
	// probation reference). Atomic because the shared-lock hit path
	// bumps it.
	freq atomic.Uint32
	q    int32 // the queue holding the node
}

// queue accounts one arena-threaded list: its charge against its budget,
// in the shard's unit.
type queue struct {
	used int64
	max  int64
}

type shard struct {
	mu       sync.RWMutex
	byKey    map[uint64]int32
	nodes    []node
	free     int32 // free-list head, linked through next
	hand     int32 // SIEVE's retained hand; none = start from the back
	bytes    bool  // budget unit: accounted bytes, or objects
	queues   [2]queue
	ghost    *ghost.Queue // QD-LP-FIFO only
	admitMax int64        // QD-LP-FIFO size-aware admission bound
	stats    opStats
	_        [24]byte // pad to limit false sharing between shards
}

// cache is the one Cache implementation: a sharded arena store running
// one of the four algorithms.
type cache struct {
	shards   []shard
	mask     uint64
	kind     kind
	bytes    bool
	capacity int    // configured objects; 0 under WithMaxBytes
	maxFreq  uint32 // hit-counter ceiling (1 for SIEVE)
	onEvict  func(uint64, obs.Reason)
	rec      *obs.Recorder
}

// newCache builds one shard per budget, each with its whole budget in
// queue 0. In entry mode the arena and index are presized to the budget,
// so they never grow; in byte mode they grow to the peak population.
func newCache(k kind, budgets []int64, bytes bool, maxFreq uint32) *cache {
	c := &cache{shards: make([]shard, len(budgets)), mask: uint64(len(budgets) - 1), kind: k, bytes: bytes, maxFreq: maxFreq}
	for i, budget := range budgets {
		s := &c.shards[i]
		hint := 0
		if !bytes {
			hint = int(budget)
			c.capacity += hint
		}
		s.byKey = make(map[uint64]int32, hint)
		s.nodes = make([]node, sentinels, sentinels+hint)
		for q := int32(0); q < sentinels; q++ {
			s.nodes[q].prev, s.nodes[q].next, s.nodes[q].q = q, q, q
		}
		s.free, s.hand, s.bytes = none, none, bytes
		s.queues[0].max = budget
	}
	return c
}

// cost is what value charges against the budget: the value itself in
// byte mode (the KV feeds EntryCost), one object otherwise.
func (s *shard) cost(value uint64) int64 {
	if s.bytes {
		return int64(value)
	}
	return 1
}

// back returns the oldest node of queue q, or q itself when it is empty.
func (s *shard) back(q int32) int32 { return s.nodes[q].prev }

// newer returns the node in front of i, or none at the front.
func (s *shard) newer(i int32) int32 {
	if p := s.nodes[i].prev; p >= sentinels {
		return p
	}
	return none
}

// linkFront links the detached node i at the front of queue q.
func (s *shard) linkFront(q, i int32) {
	n, head := &s.nodes[i], &s.nodes[q]
	n.q, n.prev, n.next = q, q, head.next
	s.nodes[head.next].prev = i
	head.next = i
}

// detach unlinks node i from its queue without touching the accounting.
func (s *shard) detach(i int32) {
	n := &s.nodes[i]
	s.nodes[n.prev].next = n.next
	s.nodes[n.next].prev = n.prev
}

// requeue moves node i to the front of queue q, carrying its charge when
// it changes queues.
func (s *shard) requeue(i, q int32) {
	if from := s.nodes[i].q; from != q {
		cost := s.cost(s.nodes[i].value)
		s.queues[from].used -= cost
		s.queues[q].used += cost
	}
	s.detach(i)
	s.linkFront(q, i)
}

// place stores a new object at the front of queue q. The caller has made
// room; the arena grows only when the free list is empty.
func (s *shard) place(q int32, key, value uint64) {
	i := s.free
	if i != none {
		s.free = s.nodes[i].next
	} else {
		i = int32(len(s.nodes))
		s.nodes = append(s.nodes, node{})
	}
	n := &s.nodes[i]
	n.key, n.value = key, value
	n.freq.Store(0)
	s.linkFront(q, i)
	s.queues[q].used += s.cost(value)
	s.byKey[key] = i
	s.stats.usedBytes.Add(int64(value))
}

// remove forgets node i and frees it. A SIEVE hand on i steps toward the
// front first, so a sweep in progress keeps its place.
func (s *shard) remove(i int32) {
	if s.hand == i {
		s.hand = s.newer(i)
	}
	n := &s.nodes[i]
	s.detach(i)
	s.queues[n.q].used -= s.cost(n.value)
	delete(s.byKey, n.key)
	s.stats.usedBytes.Add(-int64(n.value))
	n.next, s.free = s.free, i
}

func (s *shard) len() int {
	s.mu.RLock()
	n := len(s.byKey)
	s.mu.RUnlock()
	return n
}

func (c *cache) shard(key uint64) *shard { return &c.shards[hash(key)&c.mask] }

// Get implements Cache. LRU promotes under the exclusive lock; the other
// algorithms take the shared lock and make at most one atomic store — the
// lazy-promotion hit path the paper's scalability argument is about.
func (c *cache) Get(key uint64) (uint64, bool) {
	s := c.shard(key)
	if c.kind == kindLRU {
		return s.getLRU(key)
	}
	s.mu.RLock()
	i, ok := s.byKey[key]
	if !ok {
		s.mu.RUnlock()
		s.stats.misses.Add(1)
		return 0, false
	}
	n := &s.nodes[i]
	v := n.value
	if f := n.freq.Load(); f < c.maxFreq {
		n.freq.Store(f + 1) // benign race: the counter is a hint
	}
	s.mu.RUnlock()
	s.stats.hits.Add(1)
	return v, true
}

// Set implements Cache. In byte mode value is the object's accounted cost.
func (c *cache) Set(key, value uint64) {
	s := c.shard(key)
	s.stats.sets.Add(1)
	s.mu.Lock()
	if i, ok := s.byKey[key]; ok {
		c.overwrite(s, i, value)
	} else if c.kind == kindQDLP {
		c.insertQDLP(s, key, value)
	} else if c.admit(s, 0, key, value) {
		c.rec.Record(obs.Event{Key: key, Kind: obs.EvAdmit})
	}
	s.mu.Unlock()
}

// admit stores a new object at the front of queue q, evicting from q until
// it fits. An object larger than the whole queue is refused, firing the
// hook, and admit reports false.
func (c *cache) admit(s *shard, q int32, key, value uint64) bool {
	queue, cost := &s.queues[q], s.cost(value)
	if cost > queue.max {
		c.evicted(s, key, obs.EvEvict, obs.ReasonSizeAdmission)
		return false
	}
	for queue.used+cost > queue.max {
		c.evict(s, q)
	}
	s.place(q, key, value)
	return true
}

// overwrite updates a resident object in place, touching it like a hit.
// A new cost beyond its queue's budget drops it; a larger one evicts
// others until the queue fits again.
func (c *cache) overwrite(s *shard, i int32, value uint64) {
	n := &s.nodes[i]
	qi := n.q
	q, cost := &s.queues[qi], s.cost(value)
	if cost > q.max {
		c.drop(s, i, obs.ReasonSizeAdmission)
		return
	}
	q.used += cost - s.cost(n.value)
	s.stats.usedBytes.Add(int64(value) - int64(n.value))
	n.value = value
	if c.kind == kindLRU {
		s.requeue(i, 0)
	} else if f := n.freq.Load(); f < c.maxFreq {
		n.freq.Store(f + 1)
	}
	for q.used > q.max {
		c.evict(s, qi)
	}
}

// evict removes (or, for QD-LP-FIFO's probation, promotes or demotes) one
// object from queue q. The caller holds the exclusive lock and guarantees
// the queue is non-empty.
func (c *cache) evict(s *shard, q int32) {
	switch {
	case c.kind == kindLRU:
		c.drop(s, s.back(0), obs.ReasonCapacity)
	case c.kind == kindSieve:
		c.evictSieve(s)
	case c.kind == kindQDLP && q == probation:
		c.evictProbation(s)
	default:
		c.evictClock(s, q)
	}
}

// drop evicts node i for capacity.
func (c *cache) drop(s *shard, i int32, reason obs.Reason) {
	key := s.nodes[i].key
	s.remove(i)
	c.evicted(s, key, obs.EvEvict, reason)
}

// evicted counts, records and hooks one capacity eviction (kind EvEvict,
// or EvDemoteGhost for QD-LP-FIFO's quick demotions). The hook also fires
// for objects refused outright, because the KV has already stored their
// bytes and relies on it to drop them.
func (c *cache) evicted(s *shard, key uint64, k obs.EventKind, reason obs.Reason) {
	s.stats.evictions.Add(1)
	c.rec.Record(obs.Event{Key: key, Kind: k, Reason: reason})
	if c.onEvict != nil {
		c.onEvict(key, reason)
	}
}

// Delete implements Cache.
func (c *cache) Delete(key uint64) bool {
	s := c.shard(key)
	s.mu.Lock()
	i, ok := s.byKey[key]
	if ok {
		s.remove(i)
		s.stats.deletes.Add(1)
	}
	s.mu.Unlock()
	return ok
}

// Len implements Cache.
func (c *cache) Len() int {
	total := 0
	for i := range c.shards {
		total += c.shards[i].len()
	}
	return total
}

// Capacity implements Cache: the configured object count, 0 in byte mode.
func (c *cache) Capacity() int { return c.capacity }

// Stats implements Cache.
func (c *cache) Stats() Snapshot { return sumSnapshots(c.ShardStats()) }

// ShardStats implements Cache.
func (c *cache) ShardStats() []Snapshot {
	out := make([]Snapshot, len(c.shards))
	for i := range c.shards {
		s := &c.shards[i]
		budget := s.queues[0].max + s.queues[1].max
		if c.bytes {
			out[i] = s.stats.snapshot(s.len(), 0, budget)
		} else {
			out[i] = s.stats.snapshot(s.len(), int(budget), 0)
		}
	}
	return out
}

// SetEvictHook implements Cache.
func (c *cache) SetEvictHook(fn func(uint64, obs.Reason)) { c.onEvict = fn }

// SetRecorder implements Cache. LRU records admits and evictions only: its
// promotions happen on every hit, and recording them would slow the very
// hit path the recorder exists to observe.
func (c *cache) SetRecorder(rec *obs.Recorder) { c.rec = rec }

// Name implements Cache.
func (c *cache) Name() string {
	if c.bytes {
		return "concurrent-byte-" + kindNames[c.kind]
	}
	return "concurrent-" + kindNames[c.kind]
}
