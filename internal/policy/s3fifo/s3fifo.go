// Package s3fifo implements S3-FIFO (Yang et al., SOSP'23), the
// three-queue FIFO eviction algorithm that grew out of this paper's Quick
// Demotion + Lazy Promotion insight. Included as an extension beyond the
// HotOS paper's own algorithms.
//
// S3-FIFO keeps a small FIFO (10% of the cache) for new objects, a main
// FIFO (90%) with 2-bit lazy promotion, and a ghost FIFO remembering as
// many evicted keys as the main queue holds objects. Objects leave the
// small queue for the main queue only if they were re-referenced more than
// once while probationary; one-hit wonders fall into the ghost instead.
// Main-queue evictions reinsert objects with a decremented counter while it
// is positive — the same lazy promotion as k-bit CLOCK.
package s3fifo

import (
	"repro/internal/core"
	"repro/internal/dlist"
	"repro/internal/ghost"
	"repro/internal/policy/policyutil"
	"repro/internal/trace"
)

func init() {
	core.Register("s3-fifo", func(capacity int) core.Policy { return New(capacity) })
}

const maxFreq = 3

type where uint8

const (
	inSmall where = iota
	inMain
)

type entry struct {
	key  uint64
	freq uint8
	loc  where
}

// Policy is an S3-FIFO cache. Not safe for concurrent use.
type Policy struct {
	policyutil.EventEmitter
	capacity int
	smallCap int
	byKey    map[uint64]*dlist.Node[entry]
	small    dlist.List[entry] // front = oldest
	main     dlist.List[entry] // front = oldest
	ghost    *ghost.Queue
}

// New returns an S3-FIFO policy with the canonical 10% small queue.
func New(capacity int) *Policy {
	smallCap := capacity / 10
	if smallCap < 1 {
		smallCap = 1
	}
	mainCap := capacity - smallCap
	if mainCap < 1 {
		mainCap = 1
		smallCap = 0
	}
	return &Policy{
		capacity: capacity,
		smallCap: smallCap,
		byKey:    make(map[uint64]*dlist.Node[entry], capacity),
		ghost:    ghost.New(int64(mainCap)),
	}
}

// Name implements core.Policy.
func (p *Policy) Name() string { return "s3-fifo" }

// Len implements core.Policy.
func (p *Policy) Len() int { return p.small.Len() + p.main.Len() }

// Capacity implements core.Policy.
func (p *Policy) Capacity() int { return p.capacity }

// Contains implements core.Policy.
func (p *Policy) Contains(key uint64) bool {
	_, ok := p.byKey[key]
	return ok
}

// GhostLen reports the ghost population (for tests).
func (p *Policy) GhostLen() int { return p.ghost.Len() }

// Access implements core.Policy.
func (p *Policy) Access(r *trace.Request) bool {
	if n, ok := p.byKey[r.Key]; ok {
		if n.Value.freq < maxFreq {
			n.Value.freq++
		}
		p.Hit(r.Key, r.Time)
		return true
	}
	if p.ghost.Contains(r.Key) {
		// Quick-demotion mistake: readmit directly into the main queue.
		p.ghost.Remove(r.Key)
		p.makeRoomMain(r.Time)
		p.byKey[r.Key] = p.main.PushBack(entry{key: r.Key, loc: inMain})
		p.Insert(r.Key, r.Time)
		return false
	}
	if p.smallCap == 0 {
		p.makeRoomMain(r.Time)
		p.byKey[r.Key] = p.main.PushBack(entry{key: r.Key, loc: inMain})
		p.Insert(r.Key, r.Time)
		return false
	}
	if p.small.Len() >= p.smallCap {
		p.evictSmall(r.Time)
	}
	p.byKey[r.Key] = p.small.PushBack(entry{key: r.Key, loc: inSmall})
	p.Insert(r.Key, r.Time)
	return false
}

// evictSmall pops small-queue heads until one is truly evicted: objects
// re-referenced more than once move to the main queue (with frequency
// reset), the first object with freq <= 1 falls into the ghost.
func (p *Policy) evictSmall(now int64) {
	for p.small.Len() > 0 {
		oldest := p.small.Front()
		e := oldest.Value
		p.small.Remove(oldest)
		if e.freq > 1 {
			p.makeRoomMain(now)
			oldest.Value.freq = 0
			oldest.Value.loc = inMain
			p.main.PushNodeBack(oldest)
			continue
		}
		delete(p.byKey, e.key)
		p.ghost.Add(e.key, 1)
		p.Evict(e.key, now)
		return
	}
}

// makeRoomMain frees a main-queue slot if needed, reinserting positive-
// frequency objects with a decremented counter (lazy promotion).
func (p *Policy) makeRoomMain(now int64) {
	mainCap := p.capacity - p.smallCap
	for p.main.Len() >= mainCap {
		oldest := p.main.Front()
		if oldest.Value.freq > 0 {
			oldest.Value.freq--
			p.main.MoveToBack(oldest)
			continue
		}
		e := oldest.Value
		p.main.Remove(oldest)
		delete(p.byKey, e.key)
		p.Evict(e.key, now)
	}
}
