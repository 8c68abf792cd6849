package sizeaware

import (
	"fmt"
	"sort"
	"sync"
)

// config collects the functional options New applies before dispatching to
// a policy factory, mirroring concurrent.New: an option that does not
// apply to the chosen policy is an error, not a silent no-op.
type config struct {
	clockBits    int
	clockBitsSet bool
}

// Option configures New. Options validate eagerly: a bad value fails the
// New call rather than being clamped.
type Option func(*config) error

// WithClockBits sets the CLOCK counter width in bits, 1–6 (1 =
// FIFO-Reinsertion, 2 = the paper's choice). It applies to the clock
// policy only; the size-aware qdlp's main ring is fixed at 2 bits.
func WithClockBits(bits int) Option {
	return func(c *config) error {
		if bits < 1 || bits > 6 {
			return fmt.Errorf("sizeaware: clock bits %d outside [1, 6]", bits)
		}
		c.clockBits = bits
		c.clockBitsSet = true
		return nil
	}
}

// Factory constructs one policy from the validated option set.
type Factory func(capacityBytes int64, cfg config) (Policy, error)

var (
	regMu     sync.RWMutex
	factories = map[string]Factory{}
)

// Register adds a named policy factory to the registry. Like
// core.Register it panics on a duplicate name: registration happens in
// init functions where a duplicate is a programming error.
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := factories[name]; dup {
		panic(fmt.Sprintf("sizeaware: duplicate policy registration %q", name))
	}
	factories[name] = f
}

// Names returns the registered policy names in sorted order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(factories))
	for n := range factories {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// New constructs the named size-aware policy — the byte-capacity
// counterpart of concurrent.New, sharing its registry shape so simulation
// drivers can select either family by name:
//
//	p, err := sizeaware.New("qdlp", 512<<20)
//	p, err := sizeaware.New("clock", 1<<30, sizeaware.WithClockBits(1))
func New(policy string, capacityBytes int64, opts ...Option) (Policy, error) {
	var cfg config
	cfg.clockBits = 2
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	regMu.RLock()
	f, ok := factories[policy]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("sizeaware: unknown policy %q (known: %v)", policy, Names())
	}
	return f(capacityBytes, cfg)
}

// rejectClockBits errors when WithClockBits was set for a policy whose
// counter width is not configurable.
func rejectClockBits(policy string, cfg config) error {
	if cfg.clockBitsSet {
		return fmt.Errorf("sizeaware: policy %q does not take WithClockBits", policy)
	}
	return nil
}

func init() {
	Register("fifo", func(capacityBytes int64, cfg config) (Policy, error) {
		if err := rejectClockBits("fifo", cfg); err != nil {
			return nil, err
		}
		return NewFIFO(capacityBytes)
	})
	Register("clock", func(capacityBytes int64, cfg config) (Policy, error) {
		return NewClock(capacityBytes, cfg.clockBits)
	})
	Register("lru", func(capacityBytes int64, cfg config) (Policy, error) {
		if err := rejectClockBits("lru", cfg); err != nil {
			return nil, err
		}
		return NewLRU(capacityBytes)
	})
	Register("gdsf", func(capacityBytes int64, cfg config) (Policy, error) {
		if err := rejectClockBits("gdsf", cfg); err != nil {
			return nil, err
		}
		return NewGDSF(capacityBytes)
	})
	Register("qdlp", func(capacityBytes int64, cfg config) (Policy, error) {
		if err := rejectClockBits("qdlp", cfg); err != nil {
			return nil, err
		}
		return NewQDLP(capacityBytes)
	})
}
