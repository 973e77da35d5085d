package cache

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"sia/internal/cache/memo"
	"sia/internal/core"
	"sia/internal/obs"
	"sia/internal/predicate"
)

// DefaultCapacity bounds the entry count of a zero-configured cache.
const DefaultCapacity = 4096

// Stats is a point-in-time snapshot of the cache's counters. Hits, Misses,
// Coalesced and Evictions are monotone; Entries and InFlight are gauges.
type Stats struct {
	// Hits counts requests answered from a stored entry.
	Hits uint64 `json:"hits"`
	// Misses counts requests that started a new computation (one CEGIS
	// loop each).
	Misses uint64 `json:"misses"`
	// Coalesced counts requests that joined an in-flight computation
	// instead of starting their own — the singleflight savings.
	Coalesced uint64 `json:"coalesced"`
	// Evictions counts entries dropped by the LRU bound.
	Evictions uint64 `json:"evictions"`
	// Invalidations counts entries dropped by InvalidateTags — results
	// whose underlying table data changed (e.g. a segment append).
	Invalidations uint64 `json:"invalidations"`
	// Entries is the current number of stored results.
	Entries int `json:"entries"`
	// InFlight is the current number of running computations.
	InFlight int `json:"in_flight"`
}

// Cache memoizes synthesis results under canonical keys with LRU bounding
// (a memo.Cache) and singleflight deduplication. All methods are safe for
// concurrent use.
//
// Stored results are shared: a hit returns the same *core.Result pointer
// the original computation produced, so callers must treat Results as
// immutable (every field is write-once metadata or an immutable predicate
// tree, so ordinary use never mutates one).
type Cache struct {
	// mu serializes every multi-step update across lru, inflight and
	// tagIndex; lru's own lock only guards its internals.
	mu       sync.Mutex
	lru      *memo.Cache[string, *entry]
	inflight map[string]*call

	// tagIndex maps each tag to the set of stored keys carrying it, so
	// InvalidateTags removes matching entries without a full scan. Kept
	// exactly in sync with lru by insert, eviction and invalidation.
	tagIndex map[string]map[string]bool

	// The monotone counters are obs instruments so a registry can read
	// them live; Stats() is a snapshot view over the same values.
	hits, misses, coalesced, evictions, invalidations obs.Counter

	// tracer is read by traceOutcome on every request, concurrently with
	// SetTracer; the atomic pointer keeps that pair race-free without
	// widening c.mu over trace emission.
	tracer atomic.Pointer[obs.Tracer]
}

type entry struct {
	key  string
	res  *core.Result
	tags []string
}

// call is one in-flight computation. Its lifecycle: created by the first
// requester (the leader), joined by coalescing waiters, completed exactly
// once by the detached runner goroutine, which closes done. If every
// waiter's context expires first, the call is marked abandoned and its
// runner cancelled — a later identical request then starts a fresh call
// rather than inheriting a cancelled one.
type call struct {
	done      chan struct{}
	res       *core.Result
	err       error
	waiters   int
	completed bool
	abandoned bool
	cancel    context.CancelFunc
	tags      []string
}

// New returns a cache bounded to capacity entries (DefaultCapacity when
// capacity is <= 0).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{
		lru:      memo.New[string, *entry](capacity),
		inflight: map[string]*call{},
		tagIndex: map[string]map[string]bool{},
	}
}

// Do returns the cached result for key, computing it with fn on a miss.
// Concurrent calls with the same key share a single fn invocation; cached
// reports whether the result was served without running fn in this call
// (an LRU hit or a coalesced join).
//
// fn runs on a goroutine whose context is detached from ctx's
// cancellation: the computation belongs to every waiter, not to whichever
// request happened to arrive first, so one impatient client cannot kill
// the work for the others. When ctx expires while fn is still running, Do
// returns an error matching core.ErrTimeout (and ctx.Err()) immediately;
// the computation keeps running for the remaining waiters and is cancelled
// only when the last waiter is gone. An expired ctx always yields that
// error — even when the entry is already stored or the computation lands
// in the same instant — so a caller's deadline is honored
// deterministically. Successful results are stored; errors are not (the
// next request retries).
func (c *Cache) Do(ctx context.Context, key string, fn func(context.Context) (*core.Result, error)) (res *core.Result, cached bool, err error) {
	return c.DoTagged(ctx, key, nil, fn)
}

// DoTagged is Do with invalidation tags: a successfully stored result
// carries tags, and a later InvalidateTags on any of them removes it. The
// synthesizer tags entries with the visible-schema columns their predicate
// conditions on, so a data append to those columns invalidates exactly the
// results it could stale.
func (c *Cache) DoTagged(ctx context.Context, key string, tags []string, fn func(context.Context) (*core.Result, error)) (res *core.Result, cached bool, err error) {
	for {
		// A dead context fails fast even on what would be a cache hit:
		// the caller's budget is spent, and cancelled means cancelled.
		if cerr := ctx.Err(); cerr != nil {
			return nil, false, fmt.Errorf("%w: %w", core.ErrTimeout, cerr)
		}
		c.mu.Lock()
		if e, ok := c.lru.Get(key); ok {
			c.hits.Inc()
			res := e.res
			c.mu.Unlock()
			c.traceOutcome("hit")
			return res, true, nil
		}
		if cl, ok := c.inflight[key]; ok && !cl.abandoned {
			cl.waiters++
			c.coalesced.Inc()
			c.mu.Unlock()
			c.traceOutcome("coalesced")
			res, err, retry := c.wait(ctx, cl)
			if retry {
				continue
			}
			return res, err == nil, err
		}
		// Miss: become the leader. The runner's context inherits ctx's
		// values but not its cancellation; it is cancelled only when the
		// last waiter abandons the call.
		c.misses.Inc()
		runCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
		cl := &call{done: make(chan struct{}), cancel: cancel, waiters: 1, tags: tags}
		c.inflight[key] = cl
		c.mu.Unlock()
		c.traceOutcome("miss")
		go c.run(key, cl, runCtx, fn)
		res, err, retry := c.wait(ctx, cl)
		if retry {
			continue
		}
		return res, false, err
	}
}

// wait blocks until the call completes or ctx expires. retry is set when
// the call was abandoned under the waiter (its result is a cancellation
// artifact, not an answer) while the waiter's own context is still live.
func (c *Cache) wait(ctx context.Context, cl *call) (res *core.Result, err error, retry bool) {
	select {
	case <-cl.done:
		c.mu.Lock()
		abandoned := cl.abandoned
		c.mu.Unlock()
		if abandoned && cl.err != nil && ctx.Err() == nil {
			return nil, nil, true
		}
		// The computation can land in the same instant the waiter's
		// context expires, leaving both select arms ready. Deadline
		// expiry wins, so the caller's budget is honored
		// deterministically; the result is still stored for later
		// callers.
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("%w: %w", core.ErrTimeout, cerr), false
		}
		return cl.res, cl.err, false
	case <-ctx.Done():
		c.mu.Lock()
		cl.waiters--
		if cl.waiters == 0 && !cl.completed {
			cl.abandoned = true
			cl.cancel()
		}
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %w", core.ErrTimeout, ctx.Err()), false
	}
}

// run executes one computation and publishes its outcome.
func (c *Cache) run(key string, cl *call, runCtx context.Context, fn func(context.Context) (*core.Result, error)) {
	res, err := fn(runCtx)
	c.mu.Lock()
	cl.res, cl.err = res, err
	cl.completed = true
	// A fresh call may have replaced an abandoned one; only the owner
	// clears the slot.
	if c.inflight[key] == cl {
		delete(c.inflight, key)
	}
	if err == nil {
		c.insert(key, res, cl.tags)
	}
	c.mu.Unlock()
	close(cl.done)
	cl.cancel()
}

// insert stores res under key with tags as the most recently used entry,
// replacing any entry already under key; past capacity the LRU tail is
// evicted and untagged. Caller holds c.mu.
func (c *Cache) insert(key string, res *core.Result, tags []string) {
	if old, ok := c.lru.Remove(key); ok {
		c.untag(old)
	}
	e := &entry{key: key, res: res, tags: tags}
	if _, old, evicted := c.lru.Add(key, e); evicted {
		c.untag(old)
		c.evictions.Inc()
	}
	c.tag(e)
}

// tag adds e's key under each of its tags. Caller holds c.mu.
func (c *Cache) tag(e *entry) {
	for _, t := range e.tags {
		keys := c.tagIndex[t]
		if keys == nil {
			keys = map[string]bool{}
			c.tagIndex[t] = keys
		}
		keys[e.key] = true
	}
}

// untag removes e's key from the index, dropping emptied tag sets. Caller
// holds c.mu.
func (c *Cache) untag(e *entry) {
	for _, t := range e.tags {
		keys := c.tagIndex[t]
		delete(keys, e.key)
		if len(keys) == 0 {
			delete(c.tagIndex, t)
		}
	}
}

// InvalidateTags removes every stored entry carrying at least one of the
// given tags and returns how many were dropped. In-flight computations are
// unaffected (their results land after the invalidation and reflect
// whatever data they read); absent tags are a no-op.
func (c *Cache) InvalidateTags(tags []string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	removed := 0
	for _, t := range tags {
		// goroutine: bounded — iterates the keys indexed under one tag,
		// each removed exactly once.
		for key := range c.tagIndex[t] {
			e, ok := c.lru.Remove(key)
			if !ok {
				continue
			}
			c.untag(e)
			c.invalidations.Inc()
			removed++
		}
	}
	return removed
}

// Peek returns the stored result for key without computing on a miss. A
// found entry is refreshed in the LRU and counted as a hit (it served a
// request); an absent key is not counted as a miss, so Stats.Misses keeps
// meaning "CEGIS loops started". The serving tier uses Peek as the local
// fast path before forwarding a peer-owned key: a positive lookup skips
// the network hop, a negative one proxies.
func (c *Cache) Peek(key string) (*core.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.lru.Get(key)
	if !ok {
		return nil, false
	}
	c.hits.Inc()
	return e.res, true
}

// Put stores res under key without counting a miss, evicting past
// capacity. It backs snapshot restore (warming a rebooted replica) and
// batched group runs (one grouped result stored under each member's key);
// ordinary synthesis results should flow through Do.
func (c *Cache) Put(key string, res *core.Result) {
	c.PutTagged(key, res, nil)
}

// PutTagged is Put with invalidation tags (see DoTagged).
func (c *Cache) PutTagged(key string, res *core.Result, tags []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insert(key, res, tags)
}

// Entry is one exported cache entry.
type Entry struct {
	Key string
	Res *core.Result
}

// Export returns the stored entries, most recently used first. The slice
// is a snapshot: later cache mutations do not affect it. Snapshot writers
// use the MRU order so a capacity-truncated restore keeps the hottest
// keys.
func (c *Cache) Export() []Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Entry, 0, c.lru.Len())
	c.lru.Range(func(key string, e *entry) {
		out = append(out, Entry{Key: key, Res: e.res})
	})
	return out
}

// Stats returns a snapshot of the cache's counters and gauges.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:          c.hits.Value(),
		Misses:        c.misses.Value(),
		Coalesced:     c.coalesced.Value(),
		Evictions:     c.evictions.Value(),
		Invalidations: c.invalidations.Value(),
		Entries:       c.lru.Len(),
		InFlight:      len(c.inflight),
	}
}

// SetTracer attaches a tracer whose EvCache spans record the outcome of
// every request (hit, miss, coalesced). A nil tracer (the default)
// disables emission at zero cost. Safe to call concurrently with Do;
// requests already past their outcome point keep the tracer they loaded.
func (c *Cache) SetTracer(t *obs.Tracer) { c.tracer.Store(t) }

// traceOutcome emits one cache-outcome span. Nil-safe and free when no
// tracer is attached.
func (c *Cache) traceOutcome(outcome string) {
	c.tracer.Load().Emit(obs.Span{Event: obs.EvCache, Outcome: outcome})
}

// RegisterMetrics exposes this cache instance's counters and gauges in reg
// under the sia_cache_* names. Each cache instance can register with at
// most one registry (a second registration of the same names fails with an
// error wrapping obs.ErrAlreadyRegistered).
func (c *Cache) RegisterMetrics(reg *obs.Registry) error {
	type metric struct {
		name, help string
		fn         func() float64
		gauge      bool
	}
	gauges := func() (entries, inflight int) {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.lru.Len(), len(c.inflight)
	}
	metrics := []metric{
		{"sia_cache_hits_total", "Requests answered from a stored entry.",
			func() float64 { return float64(c.hits.Value()) }, false},
		{"sia_cache_misses_total", "Requests that started a new CEGIS computation.",
			func() float64 { return float64(c.misses.Value()) }, false},
		{"sia_cache_coalesced_total", "Requests that joined an in-flight computation (singleflight savings).",
			func() float64 { return float64(c.coalesced.Value()) }, false},
		{"sia_cache_evictions_total", "Entries dropped by the LRU bound.",
			func() float64 { return float64(c.evictions.Value()) }, false},
		{"sia_cache_invalidations_total", "Entries dropped because their underlying table data changed.",
			func() float64 { return float64(c.invalidations.Value()) }, false},
		{"sia_cache_entries", "Current number of stored results.",
			func() float64 { e, _ := gauges(); return float64(e) }, true},
		{"sia_cache_inflight", "Current number of running computations.",
			func() float64 { _, f := gauges(); return float64(f) }, true},
	}
	for _, m := range metrics {
		var err error
		if m.gauge {
			err = reg.GaugeFunc(m.name, m.help, m.fn)
		} else {
			err = reg.CounterFunc(m.name, m.help, m.fn)
		}
		if err != nil {
			return fmt.Errorf("cache: register %s: %w", m.name, err)
		}
	}
	return nil
}

// Synthesizer couples a Cache with core.SynthesizeContext: the drop-in
// cached form of the synthesis entry point. The embedded Cache's methods
// (Peek, Put, Export, Do, Stats, RegisterMetrics, SetTracer, …) act on
// the synthesizer's results directly.
type Synthesizer struct {
	*Cache
}

// NewSynthesizer returns a cached synthesizer bounded to capacity results
// (DefaultCapacity when capacity is <= 0).
func NewSynthesizer(capacity int) *Synthesizer {
	return &Synthesizer{Cache: New(capacity)}
}

// Synthesize is core.SynthesizeContext memoized through the cache. cached
// reports whether the result was served without running a CEGIS loop for
// this call. Uncacheable requests (a caller-supplied Options.Solver, Trace
// or Tracer — see KeyFor) bypass the cache entirely.
//
// Stored entries are tagged with the request's visible-schema columns (the
// predicate's columns plus the synthesis targets), so InvalidateColumns
// after a data change removes exactly the results it could stale.
func (s *Synthesizer) Synthesize(ctx context.Context, p predicate.Predicate, cols []string, schema *predicate.Schema, opts core.Options) (res *core.Result, cached bool, err error) {
	key, ok := KeyFor(p, cols, schema, opts)
	if !ok {
		res, err := core.SynthesizeContext(ctx, p, cols, schema, opts)
		return res, false, err
	}
	return s.DoTagged(ctx, key, visibleColumns(p, cols), func(runCtx context.Context) (*core.Result, error) {
		return core.SynthesizeContext(runCtx, p, cols, schema, opts)
	})
}

// visibleColumns is the union of the predicate's columns and the synthesis
// target columns — the data a cached result is conditioned on.
func visibleColumns(p predicate.Predicate, cols []string) []string {
	seen := make(map[string]bool, len(cols))
	var out []string
	for _, c := range predicate.Columns(p) {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	for _, c := range cols {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// InvalidateColumns removes every cached result conditioned on any of the
// named columns and returns how many were dropped. Streaming ingestion
// calls this from a SegmentTable append hook: new rows can change a
// predicate's selectivity or even its validity, so results over the
// touched columns must be re-synthesized, not served stale.
func (s *Synthesizer) InvalidateColumns(cols []string) int {
	return s.InvalidateTags(cols)
}
