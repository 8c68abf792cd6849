// Package twoq implements the 2Q eviction algorithm (Johnson & Shasha,
// VLDB'94).
//
// 2Q keeps new objects in a FIFO admission queue A1in; objects evicted from
// A1in are remembered (metadata only) in the ghost queue A1out; an object
// re-referenced while in A1out is admitted to the main LRU queue Am. The
// paper (§4, §5) discusses 2Q as a precursor of Quick Demotion that uses a
// much larger probationary queue (25% of the cache) than QD's 10%.
package twoq

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dlist"
	"repro/internal/ghost"
	"repro/internal/policy/policyutil"
	"repro/internal/trace"
)

func init() {
	// Classic parameters from the 2Q paper: Kin = 25% of cache,
	// Kout entries = 50% of cache.
	core.Register("2q", func(capacity int) core.Policy { return New(capacity, 0.25, 0.5) })
}

type where uint8

const (
	inA1 where = iota
	inAm
)

type entry struct {
	key uint64
	loc where
}

// Policy is a 2Q cache. Not safe for concurrent use.
type Policy struct {
	policyutil.EventEmitter
	capacity int
	kin      int // max population of a1in
	byKey    map[uint64]*dlist.Node[entry]
	a1in     dlist.List[entry] // FIFO: front = oldest
	am       dlist.List[entry] // LRU: front = MRU
	a1out    *ghost.Queue
}

// New returns a 2Q policy. kinFrac is the fraction of capacity used by the
// A1in FIFO; koutFrac scales the A1out ghost entry count relative to
// capacity.
func New(capacity int, kinFrac, koutFrac float64) *Policy {
	if kinFrac <= 0 || kinFrac > 1 {
		panic(fmt.Sprintf("twoq: kinFrac must be in (0,1], got %v", kinFrac))
	}
	kin := int(float64(capacity) * kinFrac)
	if kin < 1 {
		kin = 1
	}
	kout := int(float64(capacity) * koutFrac)
	if kout < 1 {
		kout = 1
	}
	return &Policy{
		capacity: capacity,
		kin:      kin,
		byKey:    make(map[uint64]*dlist.Node[entry], capacity),
		a1out:    ghost.New(int64(kout)),
	}
}

// Name implements core.Policy.
func (p *Policy) Name() string { return "2q" }

// Len implements core.Policy.
func (p *Policy) Len() int { return p.a1in.Len() + p.am.Len() }

// Capacity implements core.Policy.
func (p *Policy) Capacity() int { return p.capacity }

// Contains implements core.Policy.
func (p *Policy) Contains(key uint64) bool {
	_, ok := p.byKey[key]
	return ok
}

// Access implements core.Policy.
func (p *Policy) Access(r *trace.Request) bool {
	if n, ok := p.byKey[r.Key]; ok {
		p.Hit(r.Key, r.Time)
		if n.Value.loc == inAm {
			p.am.MoveToFront(n)
		}
		// Hits in A1in deliberately do nothing (correlated references
		// should not earn promotion — the 2Q paper's key insight).
		return true
	}
	if p.a1out.Contains(r.Key) {
		// Reference while remembered: admit directly into Am.
		p.a1out.Remove(r.Key)
		p.makeRoom(r.Time)
		n := p.am.PushFront(entry{key: r.Key, loc: inAm})
		p.byKey[r.Key] = n
		p.Insert(r.Key, r.Time)
		return false
	}
	p.makeRoom(r.Time)
	p.byKey[r.Key] = p.a1in.PushBack(entry{key: r.Key, loc: inA1})
	p.Insert(r.Key, r.Time)
	return false
}

// makeRoom frees one slot if the cache is full: prefer reclaiming from
// A1in when it exceeds Kin (remembering the key in A1out), otherwise evict
// the Am LRU.
func (p *Policy) makeRoom(now int64) {
	if p.Len() < p.capacity {
		return
	}
	if p.a1in.Len() >= p.kin && p.a1in.Len() > 0 {
		victim := p.a1in.Front()
		delete(p.byKey, victim.Value.key)
		p.a1in.Remove(victim)
		p.a1out.Add(victim.Value.key, 1)
		p.Evict(victim.Value.key, now)
		return
	}
	if victim := p.am.Back(); victim != nil {
		delete(p.byKey, victim.Value.key)
		p.am.Remove(victim)
		p.Evict(victim.Value.key, now)
		return
	}
	// Am empty: fall back to A1in regardless of Kin.
	victim := p.a1in.Front()
	delete(p.byKey, victim.Value.key)
	p.a1in.Remove(victim)
	p.a1out.Add(victim.Value.key, 1)
	p.Evict(victim.Value.key, now)
}
