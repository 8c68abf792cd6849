package concurrent

import (
	"testing"

	"repro/internal/obs"
)

// kinds projects a key's event stream to its kinds, for order assertions.
func kinds(evs []obs.Event) []obs.EventKind {
	out := make([]obs.EventKind, len(evs))
	for i, ev := range evs {
		out[i] = ev.Kind
	}
	return out
}

// The QDLP lifecycle the paper's Figure 2 describes, replayed through the
// recorder: a one-hit-wonder is admitted to probation, demoted to the ghost
// FIFO with reason probation-overflow, and readmitted to the main queue when
// it is seen again.
func TestQDLPLifecycleEvents(t *testing.T) {
	rec := obs.NewRecorder(1, 256)
	c, err := New("qdlp", 64, WithShards(1), WithRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	c.Set(1, 1)
	for k := uint64(2); k < 10; k++ { // push key 1 through probation untouched
		c.Set(k, k)
	}
	c.Set(1, 11) // ghost hit: straight to the main queue

	evs := rec.KeyEvents(1, 0)
	want := []obs.EventKind{obs.EvAdmit, obs.EvDemoteGhost, obs.EvGhostReadmit}
	if len(evs) != len(want) {
		t.Fatalf("key 1 events = %v, want kinds %v", evs, want)
	}
	for i, k := range kinds(evs) {
		if k != want[i] {
			t.Fatalf("event %d kind = %v, want %v (events %v)", i, k, want[i], evs)
		}
	}
	if evs[1].Reason != obs.ReasonProbationOverflow {
		t.Fatalf("demotion reason = %v, want probation-overflow", evs[1].Reason)
	}
}

// A key that earns a reference in probation is lazily promoted to the main
// ring instead of demoted, and the promotion event carries its clock count.
func TestQDLPPromotionEventCarriesFreq(t *testing.T) {
	rec := obs.NewRecorder(1, 256)
	c, err := New("qdlp", 64, WithShards(1), WithRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	c.Set(1, 1)
	c.Get(1) // reference in probation: freq 1
	for k := uint64(2); k < 10; k++ {
		c.Set(k, k)
	}
	evs := rec.KeyEvents(1, 0)
	if len(evs) != 2 || evs[0].Kind != obs.EvAdmit || evs[1].Kind != obs.EvPromote {
		t.Fatalf("key 1 events = %v, want admit then promote", evs)
	}
	if evs[1].Freq == 0 {
		t.Fatal("promotion event lost the clock count")
	}
}

// Every policy emits an admit for each insert and a reasoned evict for each
// capacity eviction, and the event counts match the stats counters.
func TestEventCountsMatchStats(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			rec := obs.NewRecorder(4, 4096)
			c, err := New(name, 64, WithShards(1), WithRecorder(rec))
			if err != nil {
				t.Fatal(err)
			}
			for k := uint64(0); k < 200; k++ {
				c.Set(k, k)
			}
			var admits, evicts int64
			for _, ev := range rec.Snapshot(0) {
				switch ev.Kind {
				case obs.EvAdmit:
					admits++
				case obs.EvEvict:
					if ev.Reason == obs.ReasonNone {
						t.Errorf("evict event for key %d carried no reason", ev.Key)
					}
					evicts++
				}
			}
			st := c.Stats()
			if admits != st.Sets {
				t.Errorf("admit events = %d, sets = %d", admits, st.Sets)
			}
			// QDLP's demotions to ghost count as evictions in the stats but
			// are EvDemoteGhost events; fold them in for the comparison.
			for _, ev := range rec.Snapshot(0) {
				if ev.Kind == obs.EvDemoteGhost {
					evicts++
				}
			}
			if evicts != st.Evictions {
				t.Errorf("evict(+demote) events = %d, evictions = %d", evicts, st.Evictions)
			}
		})
	}
}

// Attaching a recorder must not put allocations (or events) on the
// shared-lock hit path: the paper's hit-path discipline is the whole point.
func TestRecorderKeepsHitPathAllocFree(t *testing.T) {
	rec := obs.NewRecorder(4, 1024)
	for _, name := range []string{"clock", "sieve", "qdlp"} {
		c, err := New(name, 1024, WithShards(4), WithRecorder(rec))
		if err != nil {
			t.Fatal(err)
		}
		c.Set(7, 7)
		before := rec.Total()
		if avg := testing.AllocsPerRun(500, func() {
			if _, ok := c.Get(7); !ok {
				t.Fatal("hit lost")
			}
		}); avg != 0 {
			t.Errorf("%s: Get with recorder allocates %.1f/op, want 0", name, avg)
		}
		if rec.Total() != before {
			t.Errorf("%s: hits recorded %d events", name, rec.Total()-before)
		}
	}
}
