package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/concurrent"
	"repro/internal/server"
)

const (
	servedKeySpace    = 1 << 16
	servedMedianValue = 200 // bytes; sizes are log-normal around it
	// servedWorkingSets is the working set's accounted size over the byte
	// budget.
	servedWorkingSets = 4
	servedStreamLen   = 1 << 19 // ops per connection stream, replayed cyclically
	// servedDeleteShare is the share of ops that are deletes, standing for
	// invalidations.
	servedDeleteShare = 0.02
	// opDeleteBit marks a delete in an op stream entry.
	opDeleteBit = 1 << 31
)

// servedInputs are served-churn's generated inputs.
type servedInputs struct {
	keys     [][]byte
	sizes    []int32
	streams  [][]uint32 // key index, opDeleteBit for a delete
	maxBytes int64
}

func servedGenerate(seed int64, nproc int) servedInputs {
	in := servedInputs{
		keys:    keyTable(seed, servedKeySpace),
		sizes:   valueSizes(seed, servedKeySpace, servedMedianValue),
		streams: make([][]uint32, nproc),
	}
	var ws int64
	for _, s := range in.sizes {
		ws += concurrent.EntryCost(keyLen, int(s))
	}
	in.maxBytes = ws / servedWorkingSets
	for g := range in.streams {
		ranks := zipfStream(seed, g, servedKeySpace, servedStreamLen)
		rng := rand.New(rand.NewSource(seed*104729 + int64(g)))
		s := make([]uint32, len(ranks))
		for i, r := range ranks {
			s[i] = uint32(r)
			if rng.Float64() < servedDeleteShare {
				s[i] |= opDeleteBit
			}
		}
		in.streams[g] = s
	}
	return in
}

// runServed serves byte-capped qdlp from one in-process server over
// loopback TCP and drives it with nproc closed-loop connections: get, fill
// on a miss, and a small share of deletes.
func runServed(b *bench, traced bool, seconds float64, reps int) (*phase, error) {
	p := &phase{layers: map[string]float64{}}
	var (
		in         servedInputs
		kv         *concurrent.KV
		inner      concurrent.Cache
		srv        *served
		heapBefore uint64
	)
	if traced {
		p.tracer = newTracer(1<<20, 256, 16)
	}
	recs := newRecorders(b.nproc, int(seconds*1e5/nWindows)+1024)
	pad := padding(servedMedianValue * 64) // workload.AssignSizes caps sizes at 64x the median
	for rep := 0; rep < reps; rep++ {
		if srv != nil {
			srv.stop()
		}
		srv, kv, inner, in = nil, nil, nil, servedInputs{}
		t0 := time.Now()
		in = servedGenerate(b.seed, b.nproc)
		gen := time.Since(t0)
		pause := time.Now()
		heapBefore = liveHeap()
		paused := time.Since(pause)
		var err error
		inner, err = concurrent.New("qdlp", 0, concurrent.WithMaxBytes(in.maxBytes), concurrent.WithShards(kvShards))
		if err != nil {
			return nil, err
		}
		var store server.Store
		if traced {
			kv = concurrent.NewKV(&tracedCache{Cache: inner, t: p.tracer}, kvShards)
			store = newTracedStore(kv, p.tracer, lKV, lServer)
		} else {
			kv = concurrent.NewKV(inner, kvShards)
			store = kv
		}
		servedWarm(kv, in, pad)
		if srv, err = serve(store); err != nil {
			return nil, err
		}
		p.setupS = append(p.setupS, (time.Since(t0) - paused).Seconds())
		p.genS = append(p.genS, gen.Seconds())
	}
	defer srv.stop()

	clients := make([]*server.Client, b.nproc)
	for g := range clients {
		c, err := server.Dial(srv.addr)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		clients[g] = c
	}
	var (
		stop  atomic.Bool
		wg    sync.WaitGroup
		loops = make([]*loop, b.nproc)
	)
	runtime.GC() // start measuring with the set-ups' garbage collected
	startWindows(recs, seconds)
	start := time.Now()
	for g := range clients {
		loops[g] = &loop{c: clients[g], keys: in.keys, sizes: in.sizes, pad: pad, t: p.tracer, first: g == 0, rec: recs[g]}
		wg.Add(1)
		go func(l *loop, stream []uint32) {
			defer wg.Done()
			l.closed(stream, &stop)
		}(loops[g], in.streams[g])
	}
	time.Sleep(time.Duration(seconds * float64(time.Second)))
	stop.Store(true)
	wg.Wait()
	p.elapsed = time.Since(start)
	if p.tracer != nil {
		p.tracer.on.Store(false)
	}
	p.addLoops(loops)
	p.collect(recs)

	st, err := readStats(clients[0])
	if err != nil {
		return nil, fmt.Errorf("stats: %v", err)
	}
	checkServerStats(b, st, p.gets, p.hits)
	b.check(st.usedBytes <= st.maxBytes, "used_bytes %d over max_bytes %d", st.usedBytes, st.maxBytes)
	st.layer(p.layers)

	heapAfter := liveHeap()
	user := userBytes(kv.Bytes(), kv.Items(), keyLen)
	hpub := heapPerUserByte(heapBefore, heapAfter, user)
	snap := inner.Stats()
	p.info = append(p.info, fmt.Sprintf("heap_per_user_byte %.3f B/B (live heap +%d B over %d items, %d user B)",
		hpub, heapAfter-heapBefore, kv.Items(), user))
	p.info = append(p.info, fmt.Sprintf("byte budget %d, used %d (%.3f), value bytes %d, %d items, %d evictions",
		snap.MaxBytes, snap.UsedBytes, ratio(float64(snap.UsedBytes), float64(snap.MaxBytes)), kv.Bytes(), kv.Items(), snap.Evictions))
	p.layers["kv.heap_per_user_byte"] = hpub
	p.layers["cache.evictions"] = float64(snap.Evictions)
	p.layers["cache.fill_ratio"] = ratio(float64(snap.UsedBytes), float64(snap.MaxBytes))
	p.layers["kv.fill_ratio"] = ratio(float64(kv.Bytes()), float64(snap.MaxBytes))
	p.layers["kv.allocs_per_op"] = servedAllocsPerOp(kv, in, pad)
	return p, nil
}

// servedWarm fills kv directly, before it is served, by replaying the
// first part of each stream in-process.
func servedWarm(kv *concurrent.KV, in servedInputs, pad []byte) {
	var buf, val []byte
	for _, s := range in.streams {
		for _, o := range s[:servedKeySpace] {
			k := o &^ opDeleteBit
			key := in.keys[k]
			var ok bool
			if buf, _, _, ok = kv.Get(buf[:0], key); !ok {
				val = valueFor(val, key, pad, int(in.sizes[k]))
				kv.Set(key, val, 0)
			}
		}
	}
}

// servedAllocsPerOp replays one stream's ops straight against kv on one
// goroutine and returns heap allocations per op.
func servedAllocsPerOp(kv *concurrent.KV, in servedInputs, pad []byte) float64 {
	buf := make([]byte, 0, len(pad))
	val := make([]byte, 0, len(pad))
	ops := in.streams[0][:kvAllocOps]
	before := mallocs()
	for _, o := range ops {
		k := o &^ opDeleteBit
		key := in.keys[k]
		if o&opDeleteBit != 0 {
			kv.Delete(key)
			continue
		}
		if _, _, _, ok := kv.Get(buf[:0], key); !ok {
			val = valueFor(val, key, pad, int(in.sizes[k]))
			kv.Set(key, val, 0)
		}
	}
	return float64(mallocs()-before) / float64(len(ops))
}

// checkServerStats checks the server's get accounting against itself and
// against what the clients saw.
func checkServerStats(b *bench, st serverStats, gets, hits int64) {
	b.check(st.getHits+st.getMisses == st.cmdGet, "server get_hits %d + get_misses %d != cmd_get %d", st.getHits, st.getMisses, st.cmdGet)
	b.check(st.cmdGet == gets, "server cmd_get %d, clients sent %d gets", st.cmdGet, gets)
	b.check(st.getHits == hits, "server get_hits %d, clients saw %d hits", st.getHits, hits)
}

// loop is one load connection's state.
type loop struct {
	c     *server.Client
	keys  [][]byte
	sizes []int32 // per key; nil means every value is kvValueLen
	pad   []byte
	t     *tracer
	first bool
	rec   *recorder
	val   []byte

	seq         int64
	tl          tally
	hits, ngets int64
}

func (l *loop) size(k uint32) int {
	if l.sizes == nil {
		return kvValueLen
	}
	return int(l.sizes[k])
}

// op runs one operation: a get with a fill on a miss, or a delete. sched
// is when the get was due (open loop) or 0 (closed loop: timed from its
// send).
func (l *loop) op(o uint32, sched int64) {
	k := o &^ opDeleteBit
	key := l.keys[k]
	l.tick()
	sampling := l.t.sampling()
	l.tl.attempted++
	if o&opDeleteBit != 0 {
		t0 := now()
		_, err := l.c.Delete(key)
		l.rec.ops[l.rec.w.index(t0)]++
		if err != nil {
			l.tl.fail(err)
		} else if sampling {
			l.t.record(lServer, lNone, opDelete, concurrent.Digest(key), t0, now())
		}
		return
	}
	t0 := now()
	v, found, err := l.c.Get(key)
	t1 := now()
	if err != nil {
		l.tl.fail(err)
		return
	}
	from := t0
	if sched != 0 {
		from = sched
	}
	w := l.rec.w.index(from)
	l.rec.ops[w]++
	l.rec.get[w].add(t1 - from)
	l.ngets++
	if sampling {
		l.t.record(lServer, lNone, opGet, concurrent.Digest(key), t0, t1)
	}
	size := l.size(k)
	if found {
		l.hits++
		if !valueOK(v, key, size) {
			l.tl.wrong++
		}
		return
	}
	l.val = valueFor(l.val, key, l.pad, size)
	t0 = now()
	err = l.c.Set(key, 0, l.val)
	t1 = now()
	if err != nil {
		l.tl.fail(err)
		return
	}
	l.rec.set[w].add(t1 - t0)
	if sampling {
		l.t.record(lServer, lNone, opSet, concurrent.Digest(key), t0, t1)
	}
}

// addLoops sums the loops' tallies into p.
func (p *phase) addLoops(loops []*loop) {
	for _, l := range loops {
		p.tally.add(l.tl)
		p.hits += l.hits
		p.gets += l.ngets
	}
	p.ops = p.tally.attempted
}

func (l *loop) tick() {
	if l.first {
		l.t.tick(l.seq)
	}
	l.seq++
}

// closed replays stream (from past the warm-up prefix) until stop, each op
// sent when the previous one completed.
func (l *loop) closed(stream []uint32, stop *atomic.Bool) {
	pos := servedKeySpace % len(stream)
	for !stop.Load() {
		l.op(stream[pos], 0)
		if pos++; pos == len(stream) {
			pos = 0
		}
	}
}
