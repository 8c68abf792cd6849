package ghost

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasic(t *testing.T) {
	q := New(3)
	if q.Capacity() != 3 || q.Len() != 0 {
		t.Fatalf("fresh queue: cap=%d len=%d", q.Capacity(), q.Len())
	}
	q.Add(1, 1)
	q.Add(2, 1)
	q.Add(3, 1)
	if q.Len() != 3 {
		t.Fatalf("len = %d, want 3", q.Len())
	}
	for _, k := range []uint64{1, 2, 3} {
		if !q.Contains(k) {
			t.Fatalf("missing key %d", k)
		}
	}
	// Adding a fourth drops the oldest (1).
	q.Add(4, 1)
	if q.Contains(1) {
		t.Fatal("oldest key not dropped")
	}
	if !q.Contains(2) || !q.Contains(3) || !q.Contains(4) {
		t.Fatal("wrong keys dropped")
	}
}

func TestReAddKeepsPosition(t *testing.T) {
	q := New(2)
	q.Add(1, 1)
	q.Add(2, 1)
	q.Add(1, 1) // no-op: FIFO semantics
	q.Add(3, 1) // should evict 1, not 2
	if q.Contains(1) {
		t.Fatal("re-added key was refreshed; ghost must be FIFO")
	}
	if !q.Contains(2) || !q.Contains(3) {
		t.Fatal("wrong contents after re-add")
	}
}

func TestRemove(t *testing.T) {
	q := New(2)
	q.Add(1, 1)
	if !q.Remove(1) {
		t.Fatal("Remove(1) = false")
	}
	if q.Remove(1) {
		t.Fatal("double Remove(1) = true")
	}
	if q.Len() != 0 {
		t.Fatalf("len = %d after removal", q.Len())
	}
}

func TestOldest(t *testing.T) {
	q := New(2)
	if _, ok := q.Oldest(); ok {
		t.Fatal("Oldest on empty queue reported ok")
	}
	q.Add(7, 1)
	q.Add(8, 1)
	if k, ok := q.Oldest(); !ok || k != 7 {
		t.Fatalf("Oldest = %d,%v want 7,true", k, ok)
	}
}

func TestZeroCapacity(t *testing.T) {
	for _, c := range []int{0, -5} {
		q := New(int64(c))
		q.Add(1, 1)
		if q.Len() != 0 || q.Contains(1) {
			t.Fatalf("capacity %d queue retained a key", c)
		}
	}
}

// Costs: the queue is bounded by the sum of its keys' costs, a key costing
// more than the whole capacity is not remembered, and slots are reused
// instead of growing the ring.
func TestCostBound(t *testing.T) {
	q := New(10)
	q.Add(1, 4)
	q.Add(2, 4)
	q.Add(3, 4) // 12 > 10: drops 1
	if q.Contains(1) || !q.Contains(2) || !q.Contains(3) || q.Used() != 8 {
		t.Fatalf("after overflow: contains(1)=%v used=%d", q.Contains(1), q.Used())
	}
	q.Add(4, 11)
	if q.Contains(4) || q.Used() != 8 {
		t.Fatalf("oversized key remembered: used=%d", q.Used())
	}
	q.Add(5, 10) // drops 2 and 3
	if q.Len() != 1 || q.Used() != 10 {
		t.Fatalf("len=%d used=%d, want 1 key costing 10", q.Len(), q.Used())
	}
	for k := uint64(100); k < 1000; k++ {
		q.Add(k, 1)
		q.Remove(k - 5) // leaves stale slots behind
	}
	if len(q.ring) > 32 {
		t.Fatalf("ring grew to %d slots for at most 10 keys", len(q.ring))
	}
	if q.Len() != 5 || q.Used() != 5 {
		t.Fatalf("len=%d used=%d, want the 5 newest keys", q.Len(), q.Used())
	}
	if k, ok := q.Oldest(); !ok || k != 995 {
		t.Fatalf("Oldest = %d,%v, want 995", k, ok)
	}
}

// Once the ring has grown to its working size, remembering, dropping and
// readmitting keys allocates nothing.
func TestSteadyStateZeroAllocs(t *testing.T) {
	q := New(1024)
	key := uint64(0)
	churn := func() {
		key++
		q.Add(key, 1)
		if key%3 == 0 {
			q.Remove(key - 100) // a readmission, leaving a stale slot
		}
	}
	for i := 0; i < 100000; i++ {
		churn()
	}
	if avg := testing.AllocsPerRun(10000, churn); avg != 0 {
		t.Fatalf("steady-state Add/Remove allocates %.2f/op, want 0", avg)
	}
}

// Property: Len never exceeds capacity and Contains matches a model map
// under arbitrary Add/Remove sequences.
func TestQuickModel(t *testing.T) {
	err := quick.Check(func(seed int64, ops uint8, capacity uint8) bool {
		capN := int(capacity%8) + 1
		q := New(int64(capN))
		rng := rand.New(rand.NewSource(seed))
		var order []uint64
		member := map[uint64]bool{}
		for i := 0; i < int(ops); i++ {
			k := uint64(rng.Intn(12))
			if rng.Intn(3) == 0 {
				q.Remove(k)
				if member[k] {
					delete(member, k)
					order = del(order, k)
				}
			} else {
				q.Add(k, 1)
				if !member[k] {
					if len(order) >= capN {
						delete(member, order[0])
						order = order[1:]
					}
					member[k] = true
					order = append(order, k)
				}
			}
			if q.Len() > capN || q.Len() != len(order) {
				return false
			}
			for j := uint64(0); j < 12; j++ {
				if q.Contains(j) != member[j] {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func del(s []uint64, v uint64) []uint64 {
	out := s[:0:0]
	for _, x := range s {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}
