package concurrent

import (
	"sync"
	"testing"

	"repro/internal/obs"
)

func caches(t *testing.T, capacity, shards int) []Cache {
	t.Helper()
	var out []Cache
	for _, name := range []string{"lru", "clock", "qdlp", "sieve"} {
		c, err := New(name, capacity, WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c)
	}
	return out
}

func TestBasicGetSet(t *testing.T) {
	for _, c := range caches(t, 1024, 4) {
		t.Run(c.Name(), func(t *testing.T) {
			if _, ok := c.Get(1); ok {
				t.Fatal("hit on empty cache")
			}
			c.Set(1, 100)
			v, ok := c.Get(1)
			if !ok || v != 100 {
				t.Fatalf("Get(1) = %d,%v", v, ok)
			}
			c.Set(1, 200) // overwrite
			if v, _ := c.Get(1); v != 200 {
				t.Fatalf("overwrite lost: %d", v)
			}
			if c.Len() != 1 {
				t.Fatalf("Len = %d", c.Len())
			}
		})
	}
}

func TestCapacityBound(t *testing.T) {
	for _, c := range caches(t, 256, 4) {
		t.Run(c.Name(), func(t *testing.T) {
			for k := uint64(0); k < 10000; k++ {
				c.Set(k, k)
			}
			if c.Len() > c.Capacity() {
				t.Fatalf("Len %d > Capacity %d", c.Len(), c.Capacity())
			}
			if c.Len() == 0 {
				t.Fatal("cache empty after fills")
			}
		})
	}
}

func TestBadCapacityRejected(t *testing.T) {
	if _, err := New("lru", 2, WithShards(16)); err == nil {
		t.Fatal("capacity < shards accepted (lru)")
	}
	if _, err := New("clock", 2, WithShards(16), WithClockBits(1)); err == nil {
		t.Fatal("capacity < shards accepted (clock)")
	}
	if _, err := New("qdlp", 2, WithShards(16)); err == nil {
		t.Fatal("capacity < shards accepted (qdlp)")
	}
	if _, err := New("sieve", 2, WithShards(16)); err == nil {
		t.Fatal("capacity < shards accepted (sieve)")
	}
}

// SIEVE keeps visited keys across a sweep and retains the hand position.
func TestSieveVisitedSurvives(t *testing.T) {
	c, err := New("sieve", 4, WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 4; k++ {
		c.Set(k, k)
	}
	c.Get(1)
	c.Get(2)
	c.Set(5, 5) // sweep: clears 1,2 visited bits, evicts 3
	c.Set(6, 6) // continues from 4: evicted
	for _, k := range []uint64{1, 2, 5, 6} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("key %d missing", k)
		}
	}
	for _, k := range []uint64{3, 4} {
		if _, ok := c.Get(k); ok {
			t.Fatalf("key %d should have been evicted", k)
		}
	}
}

// Hammer each cache from many goroutines; run with -race in CI. Values
// always equal keys, so any cross-key corruption is detected.
func TestConcurrentIntegrity(t *testing.T) {
	for _, c := range caches(t, 2048, 8) {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 20000; i++ {
						k := uint64((g*7 + i*13) % 4096)
						if v, ok := c.Get(k); ok {
							if v != k {
								t.Errorf("corruption: Get(%d) = %d", k, v)
								return
							}
						} else {
							c.Set(k, k)
						}
					}
				}(g)
			}
			wg.Wait()
			if c.Len() > c.Capacity() {
				t.Fatalf("Len %d > Capacity %d after hammering", c.Len(), c.Capacity())
			}
		})
	}
}

// The QDLP ghost path: a key seen, demoted, and seen again lands in the
// main queue.
func TestQDLPGhostReadmission(t *testing.T) {
	c, err := New("qdlp", 64, WithShards(1)) // one shard: small 6, main 58
	if err != nil {
		t.Fatal(err)
	}
	c.Set(1, 1)
	// Push key 1 through the small FIFO without accessing it.
	for k := uint64(2); k < 10; k++ {
		c.Set(k, k)
	}
	if _, ok := c.Get(1); ok {
		t.Fatal("key 1 should have been demoted")
	}
	c.Set(1, 11)
	s := &c.(*cache).shards[0]
	i, ok := s.byKey[1]
	if !ok || s.nodes[i].q != mainQueue {
		t.Fatalf("ghost readmission failed: ok=%v", ok)
	}
	if v, ok := c.Get(1); !ok || v != 11 {
		t.Fatalf("Get(1) = %d,%v after readmission", v, ok)
	}
}

// CLOCK reinsertion in the concurrent cache: a hot key survives a stream
// of cold inserts.
func TestClockKeepsHotKey(t *testing.T) {
	c, err := New("clock", 64, WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	c.Set(1, 1)
	for i := 0; i < 4; i++ {
		c.Get(1)
	}
	for k := uint64(100); k < 160; k++ { // one full sweep of cold keys
		c.Set(k, k)
	}
	if _, ok := c.Get(1); !ok {
		t.Fatal("hot key evicted within its frequency budget")
	}
}

func TestMeasureThroughput(t *testing.T) {
	c, err := New("qdlp", 4096, WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	res := MeasureThroughput(c, 4, 80000, 8192, 1)
	if res.Ops != 80000 {
		t.Fatalf("ops = %d", res.Ops)
	}
	if res.HitRatio() <= 0 || res.HitRatio() >= 1 {
		t.Fatalf("hit ratio %v", res.HitRatio())
	}
	if res.OpsPerSecond() <= 0 {
		t.Fatal("rate not positive")
	}
}

// The remainder of a non-dividing op count is distributed, not dropped:
// the streams sum exactly to the requested total.
func TestZipfStreamsExactTotal(t *testing.T) {
	for _, tc := range []struct{ workers, total int }{
		{1, 100}, {3, 100}, {7, 100}, {8, 100}, {7, 5},
	} {
		streams := ZipfStreams(tc.workers, tc.total, 512, 1)
		sum := 0
		for _, s := range streams {
			sum += len(s)
		}
		if sum != tc.total {
			t.Errorf("workers=%d total=%d: streams sum to %d", tc.workers, tc.total, sum)
		}
	}
	c, err := New("qdlp", 256, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	// 100000 does not divide by 7: the reported Ops must still be exact.
	if res := MeasureThroughput(c, 7, 100000, 4096, 1); res.Ops != 100000 {
		t.Fatalf("ops = %d, want 100000", res.Ops)
	}
}

// Regression for the old ceil-division splitCapacity: aggregate capacity
// must equal the configured value exactly (100 objects over 16 shards used
// to yield 112).
func TestSplitCapacityExact(t *testing.T) {
	for _, tc := range []struct{ capacity, shards int }{
		{100, 16}, {100, 7}, {1000, 13}, {64, 1}, {4096, 16}, {65, 32},
	} {
		for _, c := range caches(t, tc.capacity, tc.shards) {
			if got := c.Capacity(); got != tc.capacity {
				t.Errorf("%s: capacity %d over %d shards reports Capacity()=%d",
					c.Name(), tc.capacity, tc.shards, got)
			}
		}
	}
	per, err := splitBudget(100, 16, false)
	if err != nil {
		t.Fatal(err)
	}
	sum := int64(0)
	for _, p := range per {
		if p < 1 {
			t.Fatalf("shard with %d slots", p)
		}
		sum += p
	}
	if sum != 100 {
		t.Fatalf("per-shard capacities sum to %d, want 100", sum)
	}
}

func TestDelete(t *testing.T) {
	for _, c := range caches(t, 1024, 4) {
		t.Run(c.Name(), func(t *testing.T) {
			if c.Delete(1) {
				t.Fatal("delete on empty cache reported true")
			}
			c.Set(1, 10)
			c.Set(2, 20)
			if !c.Delete(1) {
				t.Fatal("delete of present key reported false")
			}
			if _, ok := c.Get(1); ok {
				t.Fatal("deleted key still readable")
			}
			if v, ok := c.Get(2); !ok || v != 20 {
				t.Fatalf("unrelated key damaged: %d,%v", v, ok)
			}
			if c.Len() != 1 {
				t.Fatalf("Len = %d after delete", c.Len())
			}
			if c.Delete(1) {
				t.Fatal("second delete reported true")
			}
			// The freed slot is reusable.
			c.Set(1, 11)
			if v, ok := c.Get(1); !ok || v != 11 {
				t.Fatalf("reinsert after delete: %d,%v", v, ok)
			}
			if c.Stats().Evictions != 0 {
				t.Fatalf("deletes counted as evictions: %d", c.Stats().Evictions)
			}
		})
	}
}

// Deleting from the middle of QDLP's probationary FIFO must leave it
// consistent through subsequent fills and demotions, with no tombstone
// holding a slot.
func TestQDLPDeleteTombstone(t *testing.T) {
	c, err := New("qdlp", 64, WithShards(1)) // one shard: small 6, main 58
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 6; k++ {
		c.Set(k, k)
	}
	if !c.Delete(3) {
		t.Fatal("delete failed")
	}
	if c.Len() != 5 {
		t.Fatalf("Len = %d", c.Len())
	}
	c.Set(7, 7) // fits in the freed slot: no demotion
	if ev := c.Stats().Evictions; ev != 0 {
		t.Fatalf("insert after delete evicted %d objects", ev)
	}
	// Push the whole FIFO through: the hole must not hold a slot.
	for k := uint64(10); k < 30; k++ {
		c.Set(k, k)
	}
	if _, ok := c.Get(3); ok {
		t.Fatal("tombstoned key resurrected")
	}
	if c.Len() > c.Capacity() {
		t.Fatalf("Len %d > Capacity %d", c.Len(), c.Capacity())
	}
}

func TestEvictionCountAndHook(t *testing.T) {
	for _, c := range caches(t, 64, 1) {
		t.Run(c.Name(), func(t *testing.T) {
			var hooked []uint64
			c.SetEvictHook(func(key uint64, reason obs.Reason) {
				if reason == obs.ReasonNone {
					t.Errorf("evict hook for key %d carried no reason", key)
				}
				hooked = append(hooked, key)
			})
			for k := uint64(0); k < 200; k++ {
				c.Set(k, k)
			}
			ev := c.Stats().Evictions
			if ev == 0 {
				t.Fatal("no evictions counted after overfilling")
			}
			if int64(len(hooked)) != ev {
				t.Fatalf("hook fired %d times, counter says %d", len(hooked), ev)
			}
			// Every hooked key must actually be gone.
			for _, k := range hooked {
				if _, ok := c.Get(k); ok {
					t.Fatalf("hooked key %d still cached", k)
				}
			}
			// Conservation: inserts == live + evicted.
			if int64(c.Len())+ev != 200 {
				t.Fatalf("len %d + evictions %d != 200 inserts", c.Len(), ev)
			}
		})
	}
}
