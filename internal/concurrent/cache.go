// Package concurrent provides production-style thread-safe caches that
// exercise the code-path asymmetry behind the paper's throughput and
// scalability claims (§1–§3):
//
//   - LRU must perform pointer surgery on a doubly-linked list under an
//     exclusive lock on EVERY HIT (six pointer writes), so hits serialize.
//   - CLOCK (FIFO-Reinsertion) only sets a reference counter on a hit — a
//     single atomic store under a shared read lock; hits proceed in
//     parallel and writes are the only serialized operations.
//   - QD-LP-FIFO inherits CLOCK's hit path: at most one metadata update on
//     a cache hit and no exclusive locking for any read.
//
// All caches are sharded; the comparison keeps sharding identical so the
// measured difference is the per-hit metadata discipline, exactly the
// paper's argument.
//
// Each algorithm has one implementation, in the list form the simulator
// (internal/policy) runs, so a one-shard cache decides exactly as the
// simulator does: LRU moves to front, CLOCK is FIFO-Reinsertion, SIEVE
// keeps its hand, and QD-LP-FIFO is a probationary FIFO in front of a
// CLOCK main plus the simulator's own ghost (internal/ghost). Each shard
// has one budget whose unit New fixes: one per object under
// WithMaxEntries, the object's EntryCost under WithMaxBytes.
package concurrent

import (
	"fmt"

	"repro/internal/obs"
)

// Cache is a fixed-capacity thread-safe key-value cache. Values are uint64
// payloads (simulation stand-ins for object data; the KV adapter stores the
// object size here).
type Cache interface {
	// Get returns the cached value and whether it was present. Get is the
	// hit path whose cost the paper's scalability argument is about.
	Get(key uint64) (uint64, bool)
	// Set inserts or overwrites key, evicting as needed.
	Set(key, value uint64)
	// Delete removes key, reporting whether it was present. Deletions do
	// not count as evictions and do not fire the eviction hook.
	Delete(key uint64) bool
	// Len returns the total number of cached objects.
	Len() int
	// Capacity returns the configured capacity in objects.
	Capacity() int
	// Stats returns a point-in-time snapshot of the cache-wide operation
	// counters and occupancy. It never takes the hit path's locks.
	Stats() Snapshot
	// ShardStats returns one snapshot per shard, in shard order — the
	// per-shard view the metrics layer exports for balance/occupancy
	// dashboards.
	ShardStats() []Snapshot
	// SetEvictHook registers fn to be called with the key and reason of
	// every object evicted for capacity (ReasonProbationOverflow,
	// ReasonMainClock, or ReasonCapacity — never deletes). It must be
	// called before the cache is shared between goroutines. fn runs while
	// the victim's shard lock is held and must not call back into the
	// cache.
	SetEvictHook(fn func(key uint64, reason obs.Reason))
	// SetRecorder attaches a lifecycle-event recorder (nil disables). Like
	// SetEvictHook it must be called before the cache is shared. Events are
	// emitted only on paths that already hold the shard's exclusive lock
	// (admit, eviction-time scans); the shared-lock hit path never records,
	// so attaching a recorder does not change the paper's hit-path cost.
	SetRecorder(rec *obs.Recorder)
	// Name identifies the implementation.
	Name() string
}

// hash mixes keys before shard selection so adversarial key patterns still
// spread across shards.
func hash(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// shardCount returns a power-of-two shard count suited to the capacity.
func shardCount(requested int) int {
	if requested <= 0 {
		requested = 16
	}
	n := 1
	for n < requested {
		n <<= 1
	}
	return n
}

// EntryOverhead is the fixed per-object byte cost added to
// len(key)+len(value) when a byte-capped cache accounts an object: an
// approximation of the map entry, pooled entry struct, buffer slack, and
// policy node a cached object really costs beyond its payload.
const EntryOverhead = 64

// EntryCost is the accounted byte cost of one cached object — the value
// the KV adapter feeds the inner policy's Set.
func EntryCost(keyLen, valueLen int) int64 {
	return int64(keyLen) + int64(valueLen) + EntryOverhead
}

// minShardBytes is the smallest per-shard byte budget that still fits at
// least one small object (cost = key+value+EntryOverhead).
const minShardBytes = 2 * EntryOverhead

// splitBudget divides a budget across shards exactly: the first
// total%shards shards get one extra unit, and the per-shard budgets sum to
// total (so the aggregate never exceeds the configured value). Every shard
// must get at least one object: one unit in entry mode, minShardBytes in
// byte mode.
func splitBudget(total int64, shards int, bytes bool) ([]int64, error) {
	switch {
	case bytes && total < int64(shards)*minShardBytes:
		return nil, fmt.Errorf("concurrent: byte budget %d below %d bytes per shard over %d shards (use fewer shards or a larger -max-bytes)",
			total, minShardBytes, shards)
	case total < int64(shards):
		return nil, fmt.Errorf("concurrent: capacity %d below shard count %d", total, shards)
	}
	base, extra := total/int64(shards), total%int64(shards)
	per := make([]int64, shards)
	for i := range per {
		per[i] = base
		if int64(i) < extra {
			per[i]++
		}
	}
	return per, nil
}
