package eval

import (
	"errors"
	"sync"
	"sync/atomic"

	"spotlight/internal/core"
	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/obs"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// cacheShards is the number of independently locked segments of the memo
// cache. A power of two so shard selection is a mask; 64 keeps lock
// contention negligible at any realistic worker count while costing only
// a few KB of fixed overhead.
const cacheShards = 64

// Key is the canonical cache identity of one evaluation. The three
// inputs are plain value types (ints, int arrays, and the layer name),
// so Go's struct equality is exact — two keys are equal iff the backend
// would see identical inputs — and the key is directly usable as a map
// key with no serialization. The only canonicalization applied is to
// Layer.Repeat, which is zeroed: Repeat weights a layer's cost in
// model-level aggregates but never reaches the backend's per-evaluation
// math, so shapes that differ only in repeat count share one entry.
type Key struct {
	Accel hw.Accel
	Sched sched.Schedule
	Layer workload.Layer
}

// CanonicalKey builds the cache key for one evaluation, applying the
// canonicalization described on Key.
func CanonicalKey(a hw.Accel, s sched.Schedule, l workload.Layer) Key {
	l.Repeat = 0
	return Key{Accel: a, Sched: s, Layer: l}
}

// Fingerprint folds a key into 64 bits with a splitmix64-style mixer.
// The cache uses it only to pick a shard — entry identity is the full
// Key, so fingerprint collisions cost contention, never correctness.
func Fingerprint(k Key) uint64 {
	z := uint64(0x5307159b0a575e11)
	for _, v := range [...]int{k.Accel.PEs, k.Accel.Width, k.Accel.SIMDLanes,
		k.Accel.RFKB, k.Accel.L2KB, k.Accel.NoCBW} {
		z = fpMix(z, uint64(v))
	}
	for i := 0; i < workload.NumDims; i++ {
		z = fpMix(z, uint64(k.Sched.T2[i]))
		z = fpMix(z, uint64(k.Sched.T1[i]))
		z = fpMix(z, uint64(k.Sched.OuterOrder[i]))
		z = fpMix(z, uint64(k.Sched.InnerOrder[i]))
	}
	z = fpMix(z, uint64(k.Sched.OuterUnroll))
	z = fpMix(z, uint64(k.Sched.InnerUnroll))
	for _, c := range k.Layer.Name {
		z = fpMix(z, uint64(c))
	}
	for _, v := range [...]int{int(k.Layer.Op), k.Layer.N, k.Layer.K, k.Layer.C,
		k.Layer.R, k.Layer.S, k.Layer.X, k.Layer.Y,
		k.Layer.StrideX, k.Layer.StrideY, k.Layer.Repeat} {
		z = fpMix(z, uint64(v))
	}
	return z
}

// fpMix is a splitmix64-style finalizer folding s into state z, the same
// construction core and resilience use for seed derivation.
func fpMix(z, s uint64) uint64 {
	z ^= s + 0x9e3779b97f4a7c15 + (z << 6) + (z >> 2)
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// cacheEntry is one memoized (or in-flight) evaluation. done is closed
// when cost/err are final; keep reports whether the outcome was
// memoizable (followers of a non-kept entry re-evaluate themselves).
type cacheEntry struct {
	done chan struct{}
	cost maestro.Cost
	err  error
	keep bool
}

// cacheShard is one locked segment of the memo table.
type cacheShard struct {
	mu sync.Mutex
	m  map[Key]*cacheEntry
}

// Cache memoizes evaluations of its inner evaluator, keyed on the
// canonical (accelerator, schedule, layer) triple. It exists because the
// search runtime re-evaluates many identical triples: BO reruns propose
// duplicate schedules, checkpoint replays re-walk old samples, and the
// Pareto/figure harnesses re-cost the same designs across
// configurations. The table is sharded for concurrency and deduplicates
// in-flight work single-flight style: when several workers ask for the
// same key at once, one evaluates and the rest wait for its result.
//
// Memoization preserves the evaluator contract bit-exactly: a hit
// returns the identical maestro.Cost value and the identical error the
// miss produced. Successful evaluations and infeasibility verdicts
// (errors wrapping maestro.ErrInvalid) are memoized — both are
// deterministic properties of the design point. Any other error
// (timeouts, injected transients, panics converted by a guard below) is
// returned but NOT memoized, so a fault never poisons the cache.
//
// Entries are never evicted: a co-design run's working set is bounded by
// its sample budget, and the figure harnesses want cross-trial reuse.
// The zero value is not usable; build one with WithCache.
type Cache struct {
	inner  core.Evaluator
	shards [cacheShards]cacheShard

	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	entries   atomic.Int64

	tr obs.Tracer // emits cache.hit/miss/leaderpanic; nil disables
}

// SetTracer attaches a tracer that receives one event per cache hit,
// miss, and leader panic. Call it before evaluation begins (FromSpec
// does); the field is not synchronized against in-flight Evaluate calls.
func (c *Cache) SetTracer(tr obs.Tracer) { c.tr = tr }

// WithCache returns the memo-cache middleware.
func WithCache() Middleware {
	return func(inner core.Evaluator) core.Evaluator {
		c := &Cache{inner: inner}
		for i := range c.shards {
			c.shards[i].m = make(map[Key]*cacheEntry)
		}
		return c
	}
}

// Name implements core.Evaluator. The cache is trajectory-neutral — a
// cached pipeline returns bit-identical results to an uncached one — so
// it is transparent in the name (and the checkpoint fingerprint).
func (c *Cache) Name() string { return c.inner.Name() }

// Evaluate implements core.Evaluator as a round of one. The round
// keeps its slices off the heap (see EvaluateRound), so the buffers live
// on the stack.
func (c *Cache) Evaluate(a hw.Accel, s sched.Schedule, l workload.Layer) (maestro.Cost, error) {
	var costs [1]maestro.Cost
	var errs [1]error
	c.EvaluateRound(nil, a, []sched.Schedule{s}, l, costs[:], errs[:])
	return costs[0], errs[0]
}

// EvaluateRound implements core.RoundEvaluator with memoization and
// single-flight deduplication. The round is partitioned into memoized
// hits, a miss set this call leads, and followers of in-flight entries
// (other callers' or this very round's leaders, for duplicate keys).
// The misses go to the inner evaluator as ONE round; followers are
// resolved only after the leaders publish, which is what makes in-round
// duplicates safe — a follower of its own round's leader would
// otherwise deadlock waiting on work that has not been submitted yet.
// An in-round duplicate counts as coalesced+hit, because it genuinely
// waited on the in-flight leader.
//
// The cache.hit/miss/leaderpanic events this call emits are parented
// under sp and delivered to sp's sink, so on a shared pipeline each job
// sees only its own cache traffic. ss, costs and errs never reach the
// inner evaluator (the misses travel in pooled scratch), so a round of
// one over stack buffers stays allocation-free on a hit.
func (c *Cache) EvaluateRound(sp *obs.Span, a hw.Accel, ss []sched.Schedule, l workload.Layer,
	costs []maestro.Cost, errs []error) {

	// Per-item state: on the stack for a round of one, the common case;
	// pooled for larger rounds. The miss set is pooled too, and taken
	// only when there is a miss.
	var ent1 [1]*cacheEntry
	var flag1 [1]uint8
	sc := cacheScratch{ents: ent1[:], flags: flag1[:]}
	if len(ss) > 1 {
		pooled := cacheScratchPool.Get().(*cacheScratch)
		defer cacheScratchPool.Put(pooled)
		pooled.reset(len(ss))
		sc = *pooled
	}
	var miss *missSet

	// Phase 1: register every item, becoming leader or follower per key.
	for i := range ss {
		key := CanonicalKey(a, ss[i], l)
		shard := &c.shards[Fingerprint(key)&(cacheShards-1)]
		shard.mu.Lock()
		if e, ok := shard.m[key]; ok {
			shard.mu.Unlock()
			sc.ents[i] = e
			select {
			case <-e.done:
			default:
				sc.flags[i] |= flagInFlight
			}
			continue
		}
		e := &cacheEntry{done: make(chan struct{})}
		shard.m[key] = e
		shard.mu.Unlock()
		sc.ents[i] = e
		sc.flags[i] |= flagLeader
		if miss == nil {
			miss = missSets.Get().(*missSet)
			miss.reset()
		}
		miss.add(i, ss[i])
	}

	// Phase 2: one inner round for all misses. If the inner evaluator
	// panics (no guard below the cache), every unpublished leader entry
	// is withdrawn and released before the panic propagates, so
	// followers retry instead of blocking forever.
	if miss != nil {
		finished := false
		defer func() {
			if finished {
				return
			}
			for _, i := range miss.idx {
				c.withdraw(a, ss[i], l)
				close(sc.ents[i].done)
				if obs.Active(sp, c.tr) {
					sp.EmitTo(c.tr, obs.Event{Type: obs.CachePanic})
				}
			}
		}()
		miss.evaluate(c.inner, sp, a, l)
		finished = true

		// Phase 3: publish the leaders' results. Successes and
		// ErrInvalid verdicts are kept; any other outcome is withdrawn.
		for j, i := range miss.idx {
			e := sc.ents[i]
			e.cost, e.err = miss.costs[j], miss.errs[j]
			e.keep = e.err == nil || errors.Is(e.err, maestro.ErrInvalid)
			if e.keep {
				c.entries.Add(1)
			} else {
				c.withdraw(a, ss[i], l)
			}
			c.misses.Add(1)
			if obs.Active(sp, c.tr) {
				sp.EmitTo(c.tr, obs.Event{Type: obs.CacheMiss})
			}
			close(e.done)
			costs[i], errs[i] = e.cost, e.err
		}
		missSets.Put(miss)
	}

	// Phase 4: resolve followers, now that every leader in this round
	// has published. A withdrawn entry (non-memoizable outcome, or its
	// leader panicked) sends the follower round again on its own, where
	// it retries as a leader.
	for i := range ss {
		if sc.flags[i]&flagLeader != 0 {
			continue
		}
		e := sc.ents[i]
		if sc.flags[i]&flagInFlight != 0 {
			<-e.done // phase 1 saw every other entry already resolved
			c.coalesced.Add(1)
		}
		if !e.keep {
			c.EvaluateRound(sp, a, ss[i:i+1], l, costs[i:i+1], errs[i:i+1])
			continue
		}
		c.hits.Add(1)
		if obs.Active(sp, c.tr) {
			sp.EmitTo(c.tr, obs.Event{Type: obs.CacheHit})
		}
		costs[i], errs[i] = e.cost, e.err
	}
}

// withdraw removes the entry of one evaluation from its shard. It
// recomputes the key: withdrawals are rare (faults and panics), so the
// round does not keep every key around for them.
func (c *Cache) withdraw(a hw.Accel, s sched.Schedule, l workload.Layer) {
	key := CanonicalKey(a, s, l)
	shard := &c.shards[Fingerprint(key)&(cacheShards-1)]
	shard.mu.Lock()
	delete(shard.m, key)
	shard.mu.Unlock()
}

// cacheScratch is the per-item working set of Cache.EvaluateRound:
// entry pointers and role flags.
type cacheScratch struct {
	ents  []*cacheEntry
	flags []uint8
}

// role flags for cacheScratch.flags.
const (
	flagLeader   uint8 = 1 << iota // this call owns the entry and must publish it
	flagInFlight                   // follower found the entry unresolved (counts as coalesced)
)

var cacheScratchPool = sync.Pool{New: func() any { return new(cacheScratch) }}

func (b *cacheScratch) reset(n int) {
	if cap(b.ents) < n {
		b.ents = make([]*cacheEntry, n)
		b.flags = make([]uint8, n)
	}
	b.ents = b.ents[:n]
	b.flags = b.flags[:n]
	clear(b.ents)
	clear(b.flags)
}

// missSet is the part of a round a memo layer could not answer: each
// miss's position in the round, its schedule, and room for its result,
// so the misses reach the inner evaluator as one round.
type missSet struct {
	idx   []int
	ss    []sched.Schedule
	costs []maestro.Cost
	errs  []error
}

var missSets = sync.Pool{New: func() any { return new(missSet) }}

func (m *missSet) reset() {
	clear(m.errs)
	m.idx = m.idx[:0]
	m.ss = m.ss[:0]
}

func (m *missSet) add(i int, s sched.Schedule) {
	m.idx = append(m.idx, i)
	m.ss = append(m.ss, s)
}

// evaluate costs the misses in one round through inner.
func (m *missSet) evaluate(inner core.Evaluator, sp *obs.Span, a hw.Accel, l workload.Layer) {
	n := len(m.ss)
	if cap(m.costs) < n {
		m.costs = make([]maestro.Cost, n)
		m.errs = make([]error, n)
	}
	m.costs, m.errs = m.costs[:n], m.errs[:n]
	core.EvaluateRound(inner, sp, a, m.ss, l, m.costs, m.errs)
}

// evaluateOne is the round of one behind each middleware's Evaluate.
// Its buffers are pooled: slices handed to a round may reach an
// interface call, which would move stack buffers to the heap.
func evaluateOne(r core.RoundEvaluator, a hw.Accel, s sched.Schedule, l workload.Layer) (maestro.Cost, error) {
	b := oneBufs.Get().(*oneBuf)
	b.ss[0] = s
	r.EvaluateRound(nil, a, b.ss[:], l, b.costs[:], b.errs[:])
	cost, err := b.costs[0], b.errs[0]
	b.errs[0] = nil
	oneBufs.Put(b)
	return cost, err
}

// oneBuf holds the buffers of one evaluateOne round.
type oneBuf struct {
	ss    [1]sched.Schedule
	costs [1]maestro.Cost
	errs  [1]error
}

var oneBufs = sync.Pool{New: func() any { return new(oneBuf) }}

// CacheSnapshot is a point-in-time view of the cache counters.
type CacheSnapshot struct {
	Hits      int64 // calls answered from a memoized entry
	Misses    int64 // calls that reached the inner evaluator
	Coalesced int64 // calls that waited on another caller's in-flight evaluation
	Entries   int64 // memoized results currently resident
}

// Snapshot returns the current counters. It is safe to call
// concurrently with Evaluate; the fields are read individually, so a
// snapshot taken mid-flight may be off by in-flight calls.
func (c *Cache) Snapshot() CacheSnapshot {
	return CacheSnapshot{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Entries:   c.entries.Load(),
	}
}
