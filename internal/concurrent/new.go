package concurrent

import (
	"fmt"
	"slices"

	"repro/internal/obs"
)

// config collects the functional options New applies. Option relevance is
// tracked explicitly so New can reject options that do not apply to the
// chosen policy instead of silently ignoring them — a misconfigured
// benchmark is worse than a loud error.
type config struct {
	shards        int
	clockBits     int
	clockBitsSet  bool
	qdlp          QDLPOptions
	qdlpSet       bool
	recorder      *obs.Recorder
	maxBytes      int64
	maxEntries    int
	maxEntriesSet bool
}

const defaultShards = 16

func defaultConfig() config {
	return config{shards: defaultShards, clockBits: 2}
}

// Option configures New. Options validate eagerly: a bad value fails the
// New call rather than being clamped.
type Option func(*config) error

// WithShards sets the shard count (rounded up to a power of two). It
// applies to every policy.
func WithShards(n int) Option {
	return func(c *config) error {
		if n <= 0 {
			return fmt.Errorf("concurrent: shard count %d must be positive", n)
		}
		c.shards = n
		return nil
	}
}

// WithClockBits sets the CLOCK counter width in bits, 1–6 (1 =
// FIFO-Reinsertion, 2 = the paper's choice). It applies to the clock policy
// (its counters) and to qdlp (the main queue's counters).
func WithClockBits(bits int) Option {
	return func(c *config) error {
		if bits < 1 || bits > 6 {
			return fmt.Errorf("concurrent: clock bits %d outside [1, 6]", bits)
		}
		c.clockBits = bits
		c.clockBitsSet = true
		c.qdlp.ClockBits = bits
		return nil
	}
}

// WithQDLPOptions sets the QD-LP-FIFO parameters (probation share, ghost
// factor, main-queue CLOCK bits). It applies only to the qdlp policy.
func WithQDLPOptions(opts QDLPOptions) Option {
	return func(c *config) error {
		if c.clockBitsSet && opts.ClockBits == 0 {
			opts.ClockBits = c.clockBits // compose with an earlier WithClockBits
		}
		c.qdlp = opts
		c.qdlpSet = true
		return nil
	}
}

// WithMaxBytes caps the cache by accounted bytes instead of object count
// (cost = len(key)+len(value)+EntryOverhead per object when driven by
// the KV adapter; see EntryCost). It applies to every policy, making
// accounted bytes the budget unit, and is mutually exclusive with
// WithMaxEntries and with a nonzero positional capacity.
func WithMaxBytes(n int64) Option {
	return func(c *config) error {
		if n <= 0 {
			return fmt.Errorf("concurrent: max bytes %d must be positive", n)
		}
		c.maxBytes = n
		return nil
	}
}

// WithMaxEntries caps the cache by object count — the named form of the
// positional capacity argument. Mutually exclusive with WithMaxBytes and with a nonzero positional
// capacity.
func WithMaxEntries(n int) Option {
	return func(c *config) error {
		if n <= 0 {
			return fmt.Errorf("concurrent: max entries %d must be positive", n)
		}
		c.maxEntries = n
		c.maxEntriesSet = true
		return nil
	}
}

// WithRecorder attaches a lifecycle-event recorder to the constructed cache
// (see Cache.SetRecorder). It applies to every policy; a nil recorder is
// allowed and leaves tracing disabled.
func WithRecorder(rec *obs.Recorder) Option {
	return func(c *config) error {
		c.recorder = rec
		return nil
	}
}

// Names returns the cache policy names in sorted order.
func Names() []string { return append([]string(nil), kindNames[:]...) }

// New constructs the named thread-safe cache — the concurrent counterpart
// of core.New. Policy-specific knobs are functional options; an option that
// does not apply to the chosen policy is an error, as is an unknown policy
// name:
//
//	c, err := concurrent.New("qdlp", 0, concurrent.WithMaxBytes(512<<20))
//	c, err := concurrent.New("qdlp", 0, concurrent.WithMaxEntries(1<<20))
//
// The capacity argument is a positional alias for WithMaxEntries: exactly
// one of {nonzero capacity, WithMaxEntries, WithMaxBytes} must be given,
// and it fixes the budget unit — objects, or accounted bytes.
func New(policy string, capacity int, opts ...Option) (Cache, error) {
	cfg := defaultConfig()
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	switch {
	case cfg.maxBytes > 0 && cfg.maxEntriesSet:
		return nil, fmt.Errorf("concurrent: WithMaxBytes and WithMaxEntries are mutually exclusive")
	case cfg.maxBytes > 0 && capacity != 0:
		return nil, fmt.Errorf("concurrent: WithMaxBytes conflicts with the positional (entry) capacity %d", capacity)
	case cfg.maxEntriesSet && capacity != 0:
		return nil, fmt.Errorf("concurrent: WithMaxEntries conflicts with the positional capacity %d (drop one)", capacity)
	case cfg.maxEntriesSet:
		capacity = cfg.maxEntries
	case cfg.maxBytes == 0 && capacity <= 0:
		return nil, fmt.Errorf("concurrent: capacity must be set via WithMaxBytes, WithMaxEntries, or the positional argument")
	}
	i := slices.Index(kindNames[:], policy)
	if i < 0 {
		return nil, fmt.Errorf("concurrent: unknown cache policy %q (known: %v)", policy, Names())
	}
	k := kind(i)
	if cfg.clockBitsSet && k != kindClock && k != kindQDLP {
		return nil, fmt.Errorf("concurrent: policy %q does not take WithClockBits", policy)
	}
	if cfg.qdlpSet && k != kindQDLP {
		return nil, fmt.Errorf("concurrent: policy %q does not take WithQDLPOptions", policy)
	}
	bytes := cfg.maxBytes > 0
	shards := shardCount(cfg.shards)
	total := int64(capacity)
	if bytes {
		total = cfg.maxBytes
	}
	budgets, err := splitBudget(total, shards, bytes)
	if err != nil {
		return nil, err
	}
	var c *cache
	switch k {
	case kindClock:
		c = newCache(k, budgets, bytes, uint32(1<<cfg.clockBits-1))
	case kindQDLP:
		q, err := cfg.qdlp.withDefaults(bytes)
		if err != nil {
			return nil, err
		}
		if !bytes && total < 2*int64(shards) {
			return nil, fmt.Errorf("concurrent: qdlp needs >= 2 objects per shard, got capacity %d over %d shards", total, shards)
		}
		c = newCache(k, budgets, bytes, uint32(1<<q.ClockBits-1))
		for i := range c.shards {
			c.shards[i].splitQDLP(q)
		}
	default: // LRU ignores the counter; SIEVE's is one visited bit
		c = newCache(k, budgets, bytes, 1)
	}
	c.rec = cfg.recorder
	return c, nil
}
