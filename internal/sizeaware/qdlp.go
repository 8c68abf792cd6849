package sizeaware

import (
	"repro/internal/dlist"
	"repro/internal/ghost"
	"repro/internal/trace"
)

// QDLP is the size-aware QD-LP-FIFO sketched by the paper's future-work
// paragraph: the probationary FIFO holds 10% of the cache **bytes**, the
// main cache is a byte-bounded 2-bit CLOCK, and the ghost remembers as
// many keys as the main cache holds objects (tracked dynamically, since a
// byte capacity has no fixed object count).
//
// Size-aware Quick Demotion inherits a pleasant property: a large
// unrequested object occupies the probationary queue for *fewer* insertions
// than a small one (it is a larger share of the queue), so the filter is
// naturally harsher on big one-hit wonders — the objects that waste the
// most bytes.
type QDLP struct {
	capacity  int64
	probCap   int64
	probUsed  int64
	probByKey map[uint64]*dlist.Node[probEntry]
	prob      dlist.List[probEntry] // front = oldest

	main  *FIFO // size-aware 2-bit CLOCK
	ghost *ghost.Queue
}

type probEntry struct {
	key      uint64
	size     uint32
	accessed bool
}

// NewQDLP returns a size-aware QD-LP-FIFO with the paper's 10% probation
// share.
func NewQDLP(capacityBytes int64) (*QDLP, error) {
	if err := validateCapacity(capacityBytes); err != nil {
		return nil, err
	}
	probCap := capacityBytes / 10
	if probCap < 1 {
		probCap = 1
	}
	mainCap := capacityBytes - probCap
	if mainCap < 1 {
		mainCap = 1
	}
	main, err := NewClock(mainCap, 2)
	if err != nil {
		return nil, err
	}
	return &QDLP{
		capacity:  capacityBytes,
		probCap:   probCap,
		probByKey: make(map[uint64]*dlist.Node[probEntry]),
		main:      main,
		// Upper-bound the ghost generously; the effective bound is
		// enforced dynamically against the main cache's population.
		ghost: ghost.New(1 << 20),
	}, nil
}

// Name implements Policy.
func (p *QDLP) Name() string { return "size-qd-lp-fifo" }

// Len implements Policy.
func (p *QDLP) Len() int { return p.prob.Len() + p.main.Len() }

// UsedBytes implements Policy.
func (p *QDLP) UsedBytes() int64 { return p.probUsed + p.main.UsedBytes() }

// CapacityBytes implements Policy.
func (p *QDLP) CapacityBytes() int64 { return p.capacity }

// Contains implements Policy.
func (p *QDLP) Contains(key uint64) bool {
	if _, ok := p.probByKey[key]; ok {
		return true
	}
	return p.main.Contains(key)
}

// Access implements Policy.
func (p *QDLP) Access(r *trace.Request) bool {
	if n, ok := p.probByKey[r.Key]; ok {
		n.Value.accessed = true
		return true
	}
	if p.main.Contains(r.Key) {
		return p.main.Access(r)
	}
	size := int64(r.Size)
	if size > p.probCap && size > p.main.CapacityBytes() {
		return false // cannot fit anywhere
	}
	if p.ghost.Contains(r.Key) {
		p.ghost.Remove(r.Key)
		p.main.Access(r)
		return false
	}
	if size > p.probCap {
		// Too large for the probationary queue: insert into main directly
		// rather than flushing the whole probation for one object.
		p.main.Access(r)
		return false
	}
	for p.probUsed+size > p.probCap {
		p.evictProbation(r.Time)
	}
	p.probByKey[r.Key] = p.prob.PushBack(probEntry{key: r.Key, size: r.Size})
	p.probUsed += size
	return false
}

func (p *QDLP) evictProbation(now int64) {
	oldest := p.prob.Front()
	e := oldest.Value
	delete(p.probByKey, e.key)
	p.prob.Remove(oldest)
	p.probUsed -= int64(e.size)
	if e.accessed {
		req := trace.Request{Key: e.key, Size: e.size, Time: now}
		p.main.Access(&req)
		return
	}
	p.ghost.Add(e.key, 1)
	// Dynamic ghost bound: as many entries as the main cache holds
	// objects (the paper's sizing, adapted to byte capacities).
	limit := p.main.Len()
	if limit < 16 {
		limit = 16
	}
	for p.ghost.Len() > limit {
		if k, ok := p.ghost.Oldest(); ok {
			p.ghost.Remove(k)
		}
	}
}
