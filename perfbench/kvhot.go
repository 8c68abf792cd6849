package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/concurrent"
)

const (
	kvCapacity  = 1 << 17        // entries
	kvKeySpace  = 2 * kvCapacity // keys
	kvShards    = 64             // the cacheserver default
	kvValueLen  = 64
	kvStreamLen = 1 << 20 // ops per goroutine stream, replayed cyclically
	// kvLatencyEvery times one get in this many; fills are all timed.
	kvLatencyEvery = 8
	// kvAllocOps is the length of the single-goroutine replay that counts
	// allocations per KV op.
	kvAllocOps = 100_000
)

// kvInputs are kv-hot's generated inputs.
type kvInputs struct {
	keys    [][]byte
	streams [][]int32
}

func kvGenerate(seed int64, nproc int) kvInputs {
	in := kvInputs{keys: keyTable(seed, kvKeySpace), streams: make([][]int32, nproc)}
	for g := range in.streams {
		in.streams[g] = zipfStream(seed, g, kvKeySpace, kvStreamLen)
	}
	return in
}

// newKVCache builds kv-hot's entry-capped sharded policy.
func newKVCache(policy string) (concurrent.Cache, error) {
	return concurrent.New(policy, 0, concurrent.WithMaxEntries(kvCapacity), concurrent.WithShards(kvShards))
}

// runKVHot drives concurrent.KV over entry-capped qdlp in-process: nproc
// goroutines replay Zipf streams, each op a get with a fill on a miss.
func runKVHot(b *bench, traced bool, seconds float64, reps int) (*phase, error) {
	p := &phase{layers: map[string]float64{}}
	var (
		in         kvInputs
		kv         *concurrent.KV
		inner      concurrent.Cache
		heapBefore uint64
	)
	if traced {
		p.tracer = newTracer(1<<20, 8192, 64)
	}
	pad := padding(kvValueLen)
	recs := newRecorders(b.nproc, int(seconds*4e6/nWindows)/kvLatencyEvery/b.nproc+1024)
	for rep := 0; rep < reps; rep++ {
		kv, inner, in = nil, nil, kvInputs{} // let the previous set-up be collected
		t0 := time.Now()
		in = kvGenerate(b.seed, b.nproc)
		gen := time.Since(t0)
		pause := time.Now()
		heapBefore = liveHeap()
		paused := time.Since(pause)
		var err error
		if inner, err = newKVCache("qdlp"); err != nil {
			return nil, err
		}
		store := inner
		if traced {
			store = &tracedCache{Cache: inner, t: p.tracer}
		}
		kv = concurrent.NewKV(store, kvShards)
		// Warm-up fill: replay each stream's first kvCapacity ops.
		var buf, val []byte
		for _, s := range in.streams {
			for _, k := range s[:kvCapacity] {
				key := in.keys[k]
				var ok bool
				if buf, _, _, ok = kv.Get(buf[:0], key); !ok {
					val = valueFor(val, key, pad, kvValueLen)
					kv.Set(key, val, 0)
				}
			}
		}
		p.setupS = append(p.setupS, (time.Since(t0) - paused).Seconds())
		p.genS = append(p.genS, gen.Seconds())
	}

	var (
		stop    atomic.Bool
		wg      sync.WaitGroup
		results = make([]tally, b.nproc)
		hits    = make([]int64, b.nproc)
	)
	runtime.GC() // start measuring with the set-ups' garbage collected
	startWindows(recs, seconds)
	start := time.Now()
	for g := 0; g < b.nproc; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], hits[g] = kvLoop(kv, in.keys, in.streams[g], g == 0, p.tracer, &stop, recs[g])
		}(g)
	}
	time.Sleep(time.Duration(seconds * float64(time.Second)))
	stop.Store(true)
	wg.Wait()
	p.elapsed = time.Since(start)
	if p.tracer != nil {
		p.tracer.on.Store(false)
	}
	for g := range results {
		p.tally.add(results[g])
		p.hits += hits[g]
	}
	p.ops, p.gets = p.tally.attempted, p.tally.attempted
	p.collect(recs)

	heapAfter := liveHeap()
	user := userBytes(kv.Bytes(), kv.Items(), keyLen)
	hpub := heapPerUserByte(heapBefore, heapAfter, user)
	snap := inner.Stats()
	b.check(kv.Items() <= int64(kvCapacity), "kv holds %d items over capacity %d", kv.Items(), kvCapacity)
	b.check(inner.Len() <= inner.Capacity(), "policy holds %d entries over capacity %d", inner.Len(), inner.Capacity())
	p.info = append(p.info, fmt.Sprintf("heap_per_user_byte %.3f B/B (live heap +%d B over %d items, %d user B)",
		hpub, heapAfter-heapBefore, kv.Items(), user))
	p.layers["kv.heap_per_user_byte"] = hpub
	p.layers["cache.evictions"] = float64(snap.Evictions)
	p.layers["cache.fill_ratio"] = ratio(float64(inner.Len()), float64(inner.Capacity()))
	p.layers["kv.fill_ratio"] = ratio(float64(kv.Items()), float64(kvCapacity))
	p.layers["kv.allocs_per_op"] = kvAllocsPerOp(kv, in.keys, in.streams[0], pad, kvValueLen)
	if traced {
		ladder(b, p, in)
	}
	return p, nil
}

// kvLoop is one load goroutine: get each key of its stream, fill on a
// miss, until stop. The first goroutine opens and closes the tracer's
// sampling windows.
func kvLoop(kv *concurrent.KV, keys [][]byte, stream []int32, first bool, t *tracer, stop *atomic.Bool,
	rec *recorder) (tl tally, hits int64) {
	var buf, val []byte
	pad := padding(kvValueLen)
	pos := kvCapacity % len(stream)
	for seq := int64(0); !stop.Load(); {
		w := rec.w.index(now())
		gets, sets := rec.get[w], rec.set[w]
		rec.ops[w] += 64
		for end := seq + 64; seq < end; seq++ {
			if first {
				t.tick(seq)
			}
			key := keys[stream[pos]]
			if pos++; pos == len(stream) {
				pos = 0
			}
			sampling := t.sampling()
			timed := seq%kvLatencyEvery == 0 || sampling
			var t0 int64
			if timed {
				t0 = now()
			}
			v, _, _, ok := kv.Get(buf[:0], key)
			if timed {
				t1 := now()
				gets.add(t1 - t0)
				if sampling {
					t.record(lKV, lNone, opGet, concurrent.Digest(key), t0, t1)
				}
			}
			buf = v
			tl.attempted++
			if ok {
				hits++
				if !valueOK(v, key, kvValueLen) {
					tl.wrong++
				}
				continue
			}
			val = valueFor(val, key, pad, kvValueLen)
			t0 = now()
			kv.Set(key, val, 0)
			t1 := now()
			sets.add(t1 - t0)
			if sampling {
				t.record(lKV, lNone, opSet, concurrent.Digest(key), t0, t1)
			}
		}
	}
	return tl, hits
}

// kvAllocsPerOp replays ops of stream straight against kv on one goroutine
// and returns heap allocations per op.
func kvAllocsPerOp(kv *concurrent.KV, keys [][]byte, stream []int32, pad []byte, valueLen int) float64 {
	buf := make([]byte, 0, 4096)
	val := make([]byte, 0, 4096)
	before := mallocs()
	for _, k := range stream[:kvAllocOps] {
		key := keys[k]
		if _, _, _, ok := kv.Get(buf[:0], key); !ok {
			val = valueFor(val, key, pad, valueLen)
			kv.Set(key, val, 0)
		}
	}
	return float64(mallocs()-before) / kvAllocOps
}

// ladderSeconds is the length of each point of the policy ladder.
const ladderSeconds = 0.4

// ladder replays kv-hot's streams as gets alone (no fills, so the cache
// content holds still and almost every get is a hit) against each served
// policy's bare concurrent.Cache, at 1 and at nproc goroutines. It reports
// the cost of a get at nproc goroutines and the speed-up from 1 to nproc.
func ladder(b *bench, p *phase, in kvInputs) {
	ids := make([]uint64, len(in.keys))
	for i, k := range in.keys {
		ids[i] = concurrent.Digest(k)
	}
	for _, pol := range ladderPolicies {
		c, err := newKVCache(pol)
		if !b.check(err == nil, "ladder cache %s: %v", pol, err) {
			continue
		}
		for _, s := range in.streams {
			for _, k := range s[:kvCapacity] {
				if _, ok := c.Get(ids[k]); !ok {
					c.Set(ids[k], kvValueLen)
				}
			}
		}
		one, _ := getOnly(c, ids, in.streams[:1])
		many, nsPerGet := getOnly(c, ids, in.streams)
		p.layers["cache.get.ns."+pol] = nsPerGet
		p.layers["cache.scaling."+pol] = ratio(many, one)
		b.infof("ladder %s: %.0f gets/s at 1, %.0f at %d (%.2fx), %.1f ns/get", pol, one, many, len(in.streams), ratio(many, one), nsPerGet)
	}
}

// getOnly runs one goroutine per stream doing gets for ladderSeconds and
// returns gets per second and the mean time per get on one goroutine.
func getOnly(c concurrent.Cache, ids []uint64, streams [][]int32) (perSec, nsPerGet float64) {
	var (
		stop  atomic.Bool
		total atomic.Int64
		wg    sync.WaitGroup
	)
	start := time.Now()
	for _, s := range streams {
		wg.Add(1)
		go func(s []int32) {
			defer wg.Done()
			var n int64
			pos := 0
			for !stop.Load() {
				for i := 0; i < 256; i++ {
					c.Get(ids[s[pos]])
					if pos++; pos == len(s) {
						pos = 0
					}
				}
				n += 256
			}
			total.Add(n)
		}(s)
	}
	time.Sleep(time.Duration(ladderSeconds * float64(time.Second)))
	stop.Store(true)
	wg.Wait()
	el := time.Since(start)
	n := float64(total.Load())
	return n / el.Seconds(), float64(el.Nanoseconds()) * float64(len(streams)) / n
}
