// Package qd implements the paper's Quick Demotion technique (§4, Figure
// 4): a small probationary FIFO queue plus a metadata-only ghost FIFO
// placed in front of an arbitrary main eviction algorithm.
//
// The probationary FIFO uses 10% of the cache space and acts as a filter
// for unpopular objects: objects not requested after insertion are evicted
// from it quickly and only remembered in the ghost. The main cache runs the
// wrapped state-of-the-art algorithm with the remaining 90%, and the ghost
// FIFO holds as many entries as the main cache. On a miss the object enters
// the probationary FIFO — unless it is remembered in the ghost, in which
// case it goes straight into the main cache. When the probationary FIFO is
// full, its oldest object is promoted into the main cache if it was
// accessed since insertion, and otherwise evicted and recorded in the
// ghost.
//
// Wrapping ARC, LIRS, CACHEUS, LeCaR, and LHD this way is exactly the
// paper's QD-X construction; §4 reports it reduces the state-of-the-art
// miss ratios by 2.7% on average over 5307 traces, with maxima near 60%.
package qd

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dlist"
	"repro/internal/ghost"
	"repro/internal/policy/arc"
	"repro/internal/policy/cacheus"
	"repro/internal/policy/lecar"
	"repro/internal/policy/lhd"
	"repro/internal/policy/lirs"
	"repro/internal/policy/policyutil"
	"repro/internal/trace"
)

func init() {
	inners := map[string]func(mainCap int) core.Policy{
		"arc":     func(c int) core.Policy { return arc.New(c) },
		"lirs":    func(c int) core.Policy { return lirs.New(c) },
		"lecar":   func(c int) core.Policy { return lecar.New(c, 1) },
		"cacheus": func(c int) core.Policy { return cacheus.New(c, 1) },
		"lhd":     func(c int) core.Policy { return lhd.New(c, 1) },
	}
	for name, mainNew := range inners {
		mainNew := mainNew
		core.Register("qd-"+name, func(capacity int) core.Policy {
			return New(capacity, Options{}, mainNew)
		})
	}
}

// Options tunes the QD wrapper; zero values select the paper's parameters.
type Options struct {
	// ProbationFrac is the fraction of capacity given to the probationary
	// FIFO. Default 0.1 (the paper's 10%; §5 contrasts this with 2Q's 25%
	// and ARC's adaptive sizing).
	ProbationFrac float64
	// GhostFactor scales the ghost queue entry count relative to the main
	// cache size. Default 1.0 ("the ghost FIFO stores as many entries as
	// the main cache").
	GhostFactor float64
}

type probEntry struct {
	key      uint64
	accessed bool
}

// Policy wraps a main policy with Quick Demotion. Not safe for concurrent
// use.
type Policy struct {
	policyutil.EventEmitter
	name     string
	capacity int
	probCap  int

	main      core.Policy
	prob      dlist.List[probEntry] // front = oldest
	probByKey map[uint64]*dlist.Node[probEntry]
	ghost     *ghost.Queue

	// suppressInsert is set while promoting a probation object into the
	// main cache: the object never left the cache, so the inner policy's
	// OnInsert must not surface.
	suppressInsert bool
}

// New builds a QD wrapper around the main policy produced by mainNew, which
// receives the main cache's capacity (total minus probation).
func New(capacity int, opts Options, mainNew func(mainCap int) core.Policy) *Policy {
	if opts.ProbationFrac == 0 {
		opts.ProbationFrac = 0.1
	}
	if opts.GhostFactor == 0 {
		opts.GhostFactor = 1.0
	}
	if opts.ProbationFrac < 0 || opts.ProbationFrac >= 1 {
		panic(fmt.Sprintf("qd: ProbationFrac must be in (0,1), got %v", opts.ProbationFrac))
	}
	probCap := int(float64(capacity) * opts.ProbationFrac)
	if probCap < 1 {
		probCap = 1
	}
	if probCap >= capacity {
		// Degenerate tiny cache: give everything to the main policy and
		// disable the probationary FIFO.
		probCap = 0
	}
	mainCap := capacity - probCap
	p := &Policy{
		capacity:  capacity,
		probCap:   probCap,
		main:      mainNew(mainCap),
		probByKey: make(map[uint64]*dlist.Node[probEntry], probCap),
		ghost:     ghost.New(int64(float64(mainCap) * opts.GhostFactor)),
	}
	p.name = "qd-" + p.main.Name()
	if sink, ok := p.main.(core.EventSink); ok {
		sink.SetEvents(&core.Events{
			OnInsert: func(key uint64, now int64) {
				if !p.suppressInsert {
					p.Insert(key, now)
				}
			},
			OnEvict: func(key uint64, now int64) { p.Evict(key, now) },
			OnHit:   func(key uint64, now int64) { p.Hit(key, now) },
		})
	}
	return p
}

// Name implements core.Policy.
func (p *Policy) Name() string { return p.name }

// Len implements core.Policy.
func (p *Policy) Len() int { return p.prob.Len() + p.main.Len() }

// Capacity implements core.Policy.
func (p *Policy) Capacity() int { return p.capacity }

// Contains implements core.Policy.
func (p *Policy) Contains(key uint64) bool {
	if _, ok := p.probByKey[key]; ok {
		return true
	}
	return p.main.Contains(key)
}

// Main exposes the wrapped policy (for tests).
func (p *Policy) Main() core.Policy { return p.main }

// GhostLen reports the ghost queue population (for tests).
func (p *Policy) GhostLen() int { return p.ghost.Len() }

// ProbationLen reports the probationary FIFO population (for tests).
func (p *Policy) ProbationLen() int { return p.prob.Len() }

// Remove implements core.Remover when the main policy does. Probation
// entries are removed directly; main-cache entries delegate.
func (p *Policy) Remove(key uint64) bool {
	if n, ok := p.probByKey[key]; ok {
		delete(p.probByKey, key)
		p.prob.Remove(n)
		p.Evict(key, 0)
		return true
	}
	if rm, ok := p.main.(core.Remover); ok {
		return rm.Remove(key)
	}
	return false
}

// Access implements core.Policy.
func (p *Policy) Access(r *trace.Request) bool {
	if n, ok := p.probByKey[r.Key]; ok {
		// Probation hit: lazy — only a bit flips, no movement.
		n.Value.accessed = true
		p.Hit(r.Key, r.Time)
		return true
	}
	if p.main.Contains(r.Key) {
		return p.main.Access(r) // inner policy handles its own promotion
	}
	// Miss.
	if p.probCap == 0 {
		// Degenerate tiny cache: no probation stage.
		p.main.Access(r)
		return false
	}
	if p.ghost.Contains(r.Key) {
		// Demoted too quickly last time: admit straight into the main
		// cache (a real insertion — the inner OnInsert surfaces).
		p.ghost.Remove(r.Key)
		p.main.Access(r)
		return false
	}
	if p.prob.Len() >= p.probCap {
		p.evictProbation(r.Time)
	}
	p.probByKey[r.Key] = p.prob.PushBack(probEntry{key: r.Key})
	p.Insert(r.Key, r.Time)
	return false
}

// evictProbation handles the probationary FIFO tail: accessed objects are
// promoted into the main cache (remaining resident throughout), untouched
// objects are evicted and remembered in the ghost.
func (p *Policy) evictProbation(now int64) {
	oldest := p.prob.Front()
	e := oldest.Value
	delete(p.probByKey, e.key)
	p.prob.Remove(oldest)
	if e.accessed {
		req := trace.Request{Key: e.key, Size: 1, Time: now}
		p.suppressInsert = true
		p.main.Access(&req)
		p.suppressInsert = false
		return
	}
	p.ghost.Add(e.key, 1)
	p.Evict(e.key, now)
}
