package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync/atomic"

	"repro/internal/concurrent"
	"repro/internal/server"
)

// layer names a span: the layer whose public function the span times.
type layer uint8

const (
	lNone    layer = iota
	lServer        // a client round trip into the served protocol (TCP)
	lKV            // a call into concurrent.KV (direct, or as the server's Store)
	lCache         // a call into concurrent.Cache, made by the KV
	lRouter        // a call into cluster.Router, made by the router's server
	lBackend       // a call into a backend's KV, made by the backend's server
	lSimCell       // one sim.RunSweep cell
	nLayers
)

var layerNames = [nLayers]string{"-", "server", "kv", "cache", "router", "backend.kv", "sim.cell"}

// op is the kind of call a span timed.
type op uint8

const (
	opGet op = iota
	opSet
	opDelete
	nOps
)

var opNames = [nOps]string{"get", "set", "delete"}

// span is one timed call. req is the request ID: the key's digest, the one
// identifier every layer sees (the client hashes the key it sends, the
// server threads the digest into its Store, the KV hands it to the Cache).
// parent names the calling layer; the parent span itself is resolved when
// the run ends, as the innermost span of that layer with the same request
// ID whose interval contains this one.
type span struct {
	start, end   int64
	req          uint64
	name, parent layer
	op           op
}

// counter indexes the tracer's call counters.
type counter int

const (
	cCacheGet counter = iota
	cCacheSet
	cCacheDelete
	nCounters
)

// stripe is one cache line of call counters; counters are striped by key
// so concurrent callers rarely share a line.
type stripe struct {
	n [nCounters]atomic.Int64
	_ [64 - 8*nCounters%64]byte
}

const nStripes = 64

// spanShard is one stripe of the span buffer, with its own cursor, so
// concurrent recorders rarely write the same cache line.
type spanShard struct {
	next  atomic.Int64
	spans []span
	_     [32]byte
}

// tracer records spans during sampling windows and counts calls always.
// Spans live in preallocated buffers (recording never allocates), striped
// by request ID, and are written out when the run ends. Windows are opened
// and closed by the first load goroutine every period operations, so spans
// sample the run evenly in time; every layer records during the same
// windows, so a sampled request is traced through all of its layers.
type tracer struct {
	on      atomic.Bool
	shards  [nStripes]spanShard
	dropped atomic.Int64
	ctr     [nStripes]stripe

	period, window int64 // operations per sampling period and per window
}

func newTracer(capacity int, period, window int64) *tracer {
	t := &tracer{period: period, window: window}
	for i := range t.shards {
		sh := make([]span, capacity/nStripes)
		// Touch every page now: a first write faulting inside a child's
		// record would be charged to its parent span's self time.
		for j := range sh {
			sh[j].end = 1
		}
		t.shards[i].spans = sh
	}
	return t
}

// tick is called by the first load goroutine with its operation sequence
// number; it opens a window at the start of each period. A nil tracer (an
// untraced run) does nothing.
func (t *tracer) tick(seq int64) {
	if t == nil {
		return
	}
	switch seq % t.period {
	case 0:
		t.on.Store(true)
	case t.window:
		t.on.Store(false)
	}
}

func (t *tracer) sampling() bool { return t != nil && t.on.Load() }

func (t *tracer) record(name, parent layer, o op, req uint64, start, end int64) {
	sh := &t.shards[req%nStripes]
	i := sh.next.Add(1) - 1
	if i >= int64(len(sh.spans)) {
		t.dropped.Add(1)
		return
	}
	sh.spans[i] = span{start: start, end: end, req: req, name: name, parent: parent, op: o}
}

func (t *tracer) count(c counter, key uint64) {
	t.ctr[key%nStripes].n[c].Add(1)
}

func (t *tracer) total(c counter) int64 {
	var n int64
	for i := range t.ctr {
		n += t.ctr[i].n[c].Load()
	}
	return n
}

// recorded returns the spans kept so far.
func (t *tracer) recorded() []span {
	var out []span
	for i := range t.shards {
		sh := &t.shards[i]
		n := sh.next.Load()
		if n > int64(len(sh.spans)) {
			n = int64(len(sh.spans))
		}
		out = append(out, sh.spans[:n]...)
	}
	return out
}

// dump writes the spans to path, one per line: name, op, request ID,
// start and end (ns since process start) and the resolved parent's line
// number (-1 for a root).
func dump(path string, spans []span, parents []int32) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "# name op req start_ns end_ns parent")
	for i, s := range spans {
		fmt.Fprintf(w, "%s %s %016x %d %d %d\n", layerNames[s.name], opNames[s.op], s.req, s.start, s.end, parents[i])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes aggregates the spans of one layer.
type layerTimes struct {
	n, total, self int64 // span count, summed duration, summed self time
	opN, opTotal   [nOps]int64
}

func (lt layerTimes) meanNs() float64   { return ratio(float64(lt.total), float64(lt.n)) }
func (lt layerTimes) selfNs() float64   { return ratio(float64(lt.self), float64(lt.n)) }
func (lt layerTimes) opNs(o op) float64 { return ratio(float64(lt.opTotal[o]), float64(lt.opN[o])) }

// analyze resolves each span's parent and returns per-layer times, where a
// span's self time is its duration minus the part of it that its child
// spans cover. parents[i] is the index of span i's parent, or -1.
func analyze(spans []span) (byLayer [nLayers]layerTimes, parents []int32) {
	parents = make([]int32, len(spans))
	groups := make(map[uint64][]int32)
	for i := range spans {
		parents[i] = -1
		groups[spans[i].req] = append(groups[spans[i].req], int32(i))
	}
	children := make(map[int32][]int32)
	for _, g := range groups {
		sort.Slice(g, func(a, b int) bool { return spans[g[a]].start < spans[g[b]].start })
		for ci, c := range g {
			cs := spans[c]
			if cs.parent == lNone {
				continue
			}
			// The innermost containing span of the parent layer starts
			// latest; concurrent requests on one key overlap only a few
			// deep, so a short backward scan finds it.
			for pi, looked := ci-1, 0; pi >= 0 && looked < 64; pi-- {
				ps := spans[g[pi]]
				if ps.name != cs.parent {
					continue
				}
				looked++
				if ps.start <= cs.start && cs.end <= ps.end {
					parents[c] = g[pi]
					children[g[pi]] = append(children[g[pi]], c)
					break
				}
			}
		}
	}
	for i, s := range spans {
		d := s.end - s.start
		lt := &byLayer[s.name]
		lt.n++
		lt.total += d
		lt.opN[s.op]++
		lt.opTotal[s.op] += d
		lt.self += d - covered(s, spans, children[int32(i)])
	}
	return byLayer, parents
}

// covered returns how much of parent's interval the child spans cover,
// counting overlapping children once. kids are sorted by start.
func covered(parent span, spans []span, kids []int32) int64 {
	var total, end int64 = 0, parent.start
	for _, k := range kids {
		s, e := spans[k].start, spans[k].end
		if s < end {
			s = end
		}
		if e > parent.end {
			e = parent.end
		}
		if e > s {
			total += e - s
			end = e
		}
	}
	return total
}

// tracedCache is the concurrent.Cache decorator handed to concurrent.NewKV
// in traced runs: the KV reaches its inner cache only through this
// interface, so every policy call is counted and, in a window, timed.
type tracedCache struct {
	concurrent.Cache
	t *tracer
}

func (c *tracedCache) Get(key uint64) (uint64, bool) {
	c.t.count(cCacheGet, key)
	if !c.t.on.Load() {
		return c.Cache.Get(key)
	}
	s := now()
	v, ok := c.Cache.Get(key)
	c.t.record(lCache, lKV, opGet, key, s, now())
	return v, ok
}

func (c *tracedCache) Set(key, value uint64) {
	c.t.count(cCacheSet, key)
	if !c.t.on.Load() {
		c.Cache.Set(key, value)
		return
	}
	s := now()
	c.Cache.Set(key, value)
	c.t.record(lCache, lKV, opSet, key, s, now())
}

func (c *tracedCache) Delete(key uint64) bool {
	c.t.count(cCacheDelete, key)
	if !c.t.on.Load() {
		return c.Cache.Delete(key)
	}
	s := now()
	ok := c.Cache.Delete(key)
	c.t.record(lCache, lKV, opDelete, key, s, now())
	return ok
}

// tracedStore is the server.Store decorator handed to server.New in traced
// runs. It times the data commands (get, set, delete); the rest of the
// Store surface passes through.
type tracedStore struct {
	server.Store
	t            *tracer
	name, parent layer
}

// topoStore keeps the inner store's ShardTopology visible through the
// decorator: without it the server would turn off per-core shard
// partitioning and the traced run would measure a different program.
type topoStore struct {
	*tracedStore
	server.ShardTopology
}

// newTracedStore decorates inner, forwarding ShardTopology when inner has it.
func newTracedStore(inner server.Store, t *tracer, name, parent layer) server.Store {
	ts := &tracedStore{Store: inner, t: t, name: name, parent: parent}
	if topo, ok := inner.(server.ShardTopology); ok {
		return topoStore{tracedStore: ts, ShardTopology: topo}
	}
	return ts
}

func (s *tracedStore) AppendHit(dst, key []byte, id uint64, hdr concurrent.HitHeaderFunc) ([]byte, int, bool) {
	if !s.t.on.Load() {
		return s.Store.AppendHit(dst, key, id, hdr)
	}
	t0 := now()
	out, n, ok := s.Store.AppendHit(dst, key, id, hdr)
	s.t.record(s.name, s.parent, opGet, id, t0, now())
	return out, n, ok
}

func (s *tracedStore) GetMulti(dst []byte, keys [][]byte, ids []uint64, out []concurrent.MultiHit) []byte {
	if !s.t.on.Load() || len(ids) == 0 {
		return s.Store.GetMulti(dst, keys, ids, out)
	}
	t0 := now()
	dst = s.Store.GetMulti(dst, keys, ids, out)
	s.t.record(s.name, s.parent, opGet, ids[0], t0, now())
	return dst
}

func (s *tracedStore) SetDigest(key, value []byte, flags uint32, id uint64, expireAt int64) uint64 {
	if !s.t.on.Load() {
		return s.Store.SetDigest(key, value, flags, id, expireAt)
	}
	t0 := now()
	cas := s.Store.SetDigest(key, value, flags, id, expireAt)
	s.t.record(s.name, s.parent, opSet, id, t0, now())
	return cas
}

func (s *tracedStore) DeleteDigest(key []byte, id uint64) bool {
	if !s.t.on.Load() {
		return s.Store.DeleteDigest(key, id)
	}
	t0 := now()
	ok := s.Store.DeleteDigest(key, id)
	s.t.record(s.name, s.parent, opDelete, id, t0, now())
	return ok
}
