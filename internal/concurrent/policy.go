package concurrent

import (
	"fmt"

	"repro/internal/ghost"
	"repro/internal/obs"
)

// The per-algorithm decisions. Each mirrors its simulator counterpart in
// internal/policy, with the queue front as the newest end.

// ------------------------------------------------------------------ LRU

// getLRU is LRU's hit path: every hit moves the object to the front under
// the exclusive lock — the pointer surgery the paper identifies as LRU's
// scalability bottleneck. Eviction drops the back (see evict).
func (s *shard) getLRU(key uint64) (uint64, bool) {
	s.mu.Lock()
	i, ok := s.byKey[key]
	if !ok {
		s.mu.Unlock()
		s.stats.misses.Add(1)
		return 0, false
	}
	s.requeue(i, 0) // eager promotion
	v := s.nodes[i].value
	s.mu.Unlock()
	s.stats.hits.Add(1)
	return v, true
}

// ---------------------------------------------------------------- CLOCK

// evictClock runs the k-bit CLOCK (FIFO-Reinsertion) sweep over queue q:
// a referenced object at the back is reinserted at the front with a
// decremented counter — a lazy-promotion decision, recorded with the count
// that earned it — and the first zero-counter object is evicted.
// Terminates because every reinsertion decrements a positive counter.
func (c *cache) evictClock(s *shard, q int32) {
	for {
		i := s.back(q)
		n := &s.nodes[i]
		if f := n.freq.Load(); f > 0 {
			n.freq.Store(f - 1)
			c.rec.Record(obs.Event{Key: n.key, Kind: obs.EvPromote, Freq: uint8(f)})
			s.requeue(i, q)
			continue
		}
		c.drop(s, i, obs.ReasonMainClock)
		return
	}
}

// ---------------------------------------------------------------- SIEVE

// evictSieve sweeps from the retained hand toward the front, clearing
// visited bits (each spared object is recorded as a lazy promotion) and
// evicting the first unvisited object. Objects never move; the hand keeps
// its place for the next sweep, which gives new objects quick demotion.
func (c *cache) evictSieve(s *shard) {
	i := s.hand
	if i == none {
		i = s.back(0)
	}
	for s.nodes[i].freq.Load() > 0 {
		s.nodes[i].freq.Store(0)
		c.rec.Record(obs.Event{Key: s.nodes[i].key, Kind: obs.EvPromote, Freq: 1})
		if i = s.newer(i); i == none {
			i = s.back(0) // wrap to the oldest
		}
	}
	s.hand = s.newer(i)
	c.drop(s, i, obs.ReasonMainClock)
}

// ----------------------------------------------------------- QD-LP-FIFO

// QDLPOptions tunes the thread-safe QD-LP-FIFO. Zero values select the
// paper's parameters, mirroring the single-threaded qdlp.Options.
type QDLPOptions struct {
	// ProbationFrac is the probationary FIFO's share of each shard,
	// in (0, 1). 0 selects the paper's 10%.
	ProbationFrac float64
	// GhostFactor scales the ghost's capacity relative to the main
	// queue's budget, in the same unit. 0 selects the paper's 1.0.
	GhostFactor float64
	// ClockBits is the main queue's counter width in bits, 1–6
	// (1 = FIFO-Reinsertion). 0 selects the paper's 2.
	ClockBits int
	// AdmitFrac is the size-aware admission threshold for byte-capped
	// caches (WithMaxBytes), as a fraction of the probation byte budget
	// in (0, 1]: a first-touch object costing more than
	// AdmitFrac × probation-bytes goes straight to the ghost instead of
	// flushing probation. 0 selects 0.5. Entry-capped caches have no
	// byte budget to take a fraction of and reject a nonzero value.
	AdmitFrac float64
}

// withDefaults validates opts and fills in the paper's parameters.
func (o QDLPOptions) withDefaults(bytes bool) (QDLPOptions, error) {
	if o.ProbationFrac == 0 {
		o.ProbationFrac = 0.1
	}
	if o.GhostFactor == 0 {
		o.GhostFactor = 1
	}
	if o.ClockBits == 0 {
		o.ClockBits = 2
	}
	if o.AdmitFrac == 0 && bytes {
		o.AdmitFrac = 0.5
	}
	switch {
	case o.ProbationFrac < 0 || o.ProbationFrac >= 1:
		return o, fmt.Errorf("concurrent: qdlp probation fraction %v outside (0, 1)", o.ProbationFrac)
	case o.GhostFactor < 0:
		return o, fmt.Errorf("concurrent: qdlp ghost factor %v is negative", o.GhostFactor)
	case o.ClockBits < 1 || o.ClockBits > 6:
		return o, fmt.Errorf("concurrent: qdlp clock bits %d outside [1, 6]", o.ClockBits)
	case !bytes && o.AdmitFrac != 0:
		return o, fmt.Errorf("concurrent: qdlp admit fraction applies only to byte-capped caches (WithMaxBytes)")
	case o.AdmitFrac < 0 || o.AdmitFrac > 1:
		return o, fmt.Errorf("concurrent: qdlp admit fraction %v outside (0, 1]", o.AdmitFrac)
	}
	return o, nil
}

// splitQDLP divides the shard's budget between probation and main (each
// keeps room for at least one object) and sizes the ghost at GhostFactor
// × the main budget, in the shard's unit.
func (s *shard) splitQDLP(o QDLPOptions) {
	budget, unit := s.queues[0].max, int64(1)
	if s.bytes {
		unit = EntryOverhead
	}
	small := int64(float64(budget) * o.ProbationFrac)
	if small < unit {
		small = unit
	}
	if small > budget-unit {
		small = budget - unit
	}
	s.queues[probation].max = small
	s.queues[mainQueue].max = budget - small
	s.admitMax = small
	if s.bytes {
		s.admitMax = int64(float64(small) * o.AdmitFrac)
	}
	s.ghost = ghost.New(int64(float64(budget-small) * o.GhostFactor))
}

// insertQDLP admits a missed object. A ghost hit was a quick-demotion
// mistake and goes straight to main; otherwise the object enters
// probation — unless, in byte mode, it is too large for its probation
// share, in which case it is demoted to the ghost without holding bytes.
func (c *cache) insertQDLP(s *shard, key, value uint64) {
	if s.ghost.Remove(key) {
		c.rec.Record(obs.Event{Key: key, Kind: obs.EvGhostReadmit})
		c.admit(s, mainQueue, key, value)
		return
	}
	if cost := s.cost(value); cost > s.admitMax {
		s.ghost.Add(key, cost)
		c.evicted(s, key, obs.EvDemoteGhost, obs.ReasonSizeAdmission)
		return
	}
	if c.admit(s, probation, key, value) {
		c.rec.Record(obs.Event{Key: key, Kind: obs.EvAdmit})
	}
}

// evictProbation pops the probationary FIFO's back: an object referenced
// while waiting is lazily promoted into main (which may evict there to
// make room); an untouched one falls to the ghost — the quick demotion
// that is the eviction.
func (c *cache) evictProbation(s *shard) {
	i := s.back(probation)
	n := &s.nodes[i]
	key, cost := n.key, s.cost(n.value)
	f := n.freq.Load()
	if f == 0 {
		s.remove(i)
		s.ghost.Add(key, cost)
		c.evicted(s, key, obs.EvDemoteGhost, obs.ReasonProbationOverflow)
		return
	}
	c.rec.Record(obs.Event{Key: key, Kind: obs.EvPromote, Freq: uint8(f)})
	main := &s.queues[mainQueue]
	if cost > main.max {
		c.drop(s, i, obs.ReasonSizeAdmission) // too large for main even so
		return
	}
	for main.used+cost > main.max {
		c.evictClock(s, mainQueue)
	}
	s.nodes[i].freq.Store(0)
	s.requeue(i, mainQueue)
}
