package eval

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"

	"spotlight/internal/core"
	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/obs"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// Key is the canonical identity of one evaluation. The three inputs
// are plain value types (ints, int arrays, and the layer name), so Go's
// struct equality is exact — two keys are equal iff the backend would
// see identical inputs. The only canonicalization applied is to
// Layer.Repeat, which is zeroed: Repeat weights a layer's cost in
// model-level aggregates but never reaches the backend's per-evaluation
// math, so shapes that differ only in repeat count share one result.
// The persistent cache builds its record keys from it (RecordKey); the
// memo cache applies the same canonicalization to its pair tables.
type Key struct {
	Accel hw.Accel
	Sched sched.Schedule
	Layer workload.Layer
}

// CanonicalKey builds the key of one evaluation, applying the
// canonicalization described on Key.
func CanonicalKey(a hw.Accel, s sched.Schedule, l workload.Layer) Key {
	l.Repeat = 0
	return Key{Accel: a, Sched: s, Layer: l}
}

// schedKey is a lossless, pointer-free packing of a sched.Schedule: the
// seven T2 tiles, the seven T1 tiles, then the two loop orders and the
// two unrolls as 4-bit fields, four to a word. Equal keys mean equal
// schedules.
type schedKey [2*workload.NumDims + 4]uint16

// packSchedule packs s. It reports false when a tile falls outside
// [0, 65535] or a dimension outside [0, 15]; such a schedule is
// evaluated without being memoized.
func packSchedule(s *sched.Schedule) (k schedKey, ok bool) {
	const n = workload.NumDims
	var tiles, dims uint
	for i := 0; i < n; i++ {
		t2, t1 := uint(s.T2[i]), uint(s.T1[i]) // a negative tile wraps out of range
		tiles |= t2 | t1
		k[i], k[n+i] = uint16(t2), uint16(t1)
	}
	var d uint64
	for i := 0; i < n; i++ {
		o, in := uint(s.OuterOrder[i]), uint(s.InnerOrder[i])
		dims |= o | in
		d |= uint64(o)<<(4*i) | uint64(in)<<(4*(n+i))
	}
	ou, iu := uint(s.OuterUnroll), uint(s.InnerUnroll)
	dims |= ou | iu
	d |= uint64(ou)<<(8*n) | uint64(iu)<<(8*n+4)
	k[2*n], k[2*n+1], k[2*n+2], k[2*n+3] = uint16(d), uint16(d>>16), uint16(d>>32), uint16(d>>48)
	return k, tiles <= math.MaxUint16 && dims <= 0xF
}

// slotState is the life cycle of one result slot.
type slotState uint8

const (
	slotInFlight  slotState = iota // a leader is evaluating it
	slotValid                      // memoized success
	slotInvalid                    // memoized ErrInvalid verdict
	slotWithdrawn                  // the leader's outcome was not memoizable
)

// chunkSlots is the number of result slots per arena chunk (about 35 KB).
const chunkSlots = 256

// slotChunk is a fixed block of result slots: each slot's cost and
// state. Slots never move, so a growing arena copies only its chunk
// list.
type slotChunk struct {
	costs [chunkSlots]maestro.Cost
	state [chunkSlots]slotState
}

// slotArena is the append-only, pointer-free result storage shared by
// every pair table of a cache. A slot belongs to the pair table that
// claimed it, and that table's lock guards its contents. A new chunk
// starts zeroed, that is, with every slot in flight.
type slotArena struct {
	n      atomic.Uint32
	mu     sync.Mutex // serializes adding chunks
	chunks atomic.Pointer[[]*slotChunk]
}

// claim reserves a new in-flight slot.
func (r *slotArena) claim() uint32 {
	s := r.n.Add(1) - 1
	if cs := r.chunks.Load(); cs == nil || int(s/chunkSlots) >= len(*cs) {
		r.grow(s)
	}
	return s
}

// grow adds chunks until slot s exists. Appending never writes an
// entry that a reader of an older chunk list can see.
func (r *slotArena) grow(s uint32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var cs []*slotChunk
	if p := r.chunks.Load(); p != nil {
		cs = *p
	}
	for int(s/chunkSlots) >= len(cs) {
		cs = append(cs, new(slotChunk))
	}
	r.chunks.Store(&cs)
}

// chunk returns the chunk holding claimed slot s and s's offset in it.
func (r *slotArena) chunk(s uint32) (*slotChunk, uint32) {
	return (*r.chunks.Load())[s/chunkSlots], s % chunkSlots
}

// pairTable memoizes the evaluations of one (accelerator, layer) pair:
// an index from packed schedule to arena slot, and the verdicts of the
// invalid slots. Key and value hold no pointers, so the collector never
// scans the index. A withdrawn slot (a fault, or a leader panic) stays
// indexed until the next claim of its schedule replaces it. mu guards
// the table and the contents of its slots.
type pairTable struct {
	mu      sync.Mutex
	settled sync.Cond // broadcast when a leader round settles its slots
	slots   *slotArena

	index   map[schedKey]uint32 // schedule → slot
	invalid map[uint32]error    // the verdict of each slotInvalid slot
}

func newPairTable(slots *slotArena) *pairTable {
	t := &pairTable{slots: slots, index: make(map[schedKey]uint32)}
	t.settled.L = &t.mu
	return t
}

func (t *pairTable) state(s uint32) slotState {
	ch, i := t.slots.chunk(s)
	return ch.state[i]
}

// result is the memoized outcome of settled slot s; ok is false when
// its leader withdrew it.
func (t *pairTable) result(s uint32) (cost maestro.Cost, err error, ok bool) {
	ch, i := t.slots.chunk(s)
	switch ch.state[i] {
	case slotWithdrawn:
		return maestro.Cost{}, nil, false
	case slotInvalid:
		err = t.invalid[s]
	}
	return ch.costs[i], err, true
}

// settle publishes the leaders' results in m: successes and ErrInvalid
// verdicts are memoized, every other outcome is withdrawn. It wakes the
// followers waiting on t and returns how many results it memoized.
func (t *pairTable) settle(m *cacheMiss) (kept int64) {
	t.mu.Lock()
	for j, s := range m.slots {
		if s == noSlot {
			continue
		}
		ch, i := t.slots.chunk(s)
		switch err := m.errs[j]; {
		case err == nil:
			ch.state[i] = slotValid
		case errors.Is(err, maestro.ErrInvalid):
			if t.invalid == nil {
				t.invalid = make(map[uint32]error)
			}
			t.invalid[s] = err
			ch.state[i] = slotInvalid
		default:
			ch.state[i] = slotWithdrawn
			continue
		}
		ch.costs[i] = m.costs[j]
		kept++
	}
	t.mu.Unlock()
	t.settled.Broadcast()
	return kept
}

// abandon withdraws every slot m leads, after the inner round panicked,
// and releases their followers.
func (t *pairTable) abandon(m *cacheMiss) {
	t.mu.Lock()
	for _, s := range m.slots {
		if s != noSlot {
			ch, i := t.slots.chunk(s)
			ch.state[i] = slotWithdrawn
		}
	}
	t.mu.Unlock()
	t.settled.Broadcast()
}

// Cache memoizes evaluations of its inner evaluator, keyed on the
// canonical (accelerator, schedule, layer) triple. It exists because the
// search runtime re-evaluates many identical triples: BO reruns propose
// duplicate schedules, checkpoint replays re-walk old samples, and the
// Pareto/figure harnesses re-cost the same designs across
// configurations. A round carries one (accelerator, layer) pair, so the
// cache keeps one table per pair, resolved once per round, and keys
// each item by its packed schedule. Single-flight deduplicates in-flight
// work: when several workers ask for the same triple at once, one
// evaluates and the rest wait for its result.
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
	mu     sync.Mutex                                 // guards layers
	layers map[workload.Layer]map[hw.Accel]*pairTable // Repeat zeroed
	slots  slotArena

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
		return &Cache{inner: inner, layers: make(map[workload.Layer]map[hw.Accel]*pairTable)}
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

// table returns the pair table of (a, l), creating it on first use.
func (c *Cache) table(a hw.Accel, l workload.Layer) *pairTable {
	l.Repeat = 0
	c.mu.Lock()
	defer c.mu.Unlock()
	byAccel := c.layers[l]
	if byAccel == nil {
		byAccel = make(map[hw.Accel]*pairTable)
		c.layers[l] = byAccel
	}
	t := byAccel[a]
	if t == nil {
		t = newPairTable(&c.slots)
		byAccel[a] = t
	}
	return t
}

// itemRole is what one item of a round does.
type itemRole uint8

const (
	roleHit      itemRole = iota // answered from a settled slot
	roleMiss                     // in this round's miss set, leading its slot if it has one
	roleFollower                 // found its slot in flight: waits for the leader
	roleRetry                    // its leader withdrew the slot: evaluated again alone
)

// stackRound is the largest round whose per-item state lives on the
// stack; larger rounds take it from a pool.
const stackRound = 8

// EvaluateRound implements core.RoundEvaluator with memoization and
// single-flight deduplication. Under one lock of the pair's table, the
// round is partitioned into hits (answered on the spot), a miss set
// this call leads, and followers of in-flight slots (other callers' or
// this very round's leaders, for duplicate schedules). The misses go to
// the inner evaluator as ONE round; followers are resolved only after
// the leaders publish, which is what makes in-round duplicates safe — a
// follower of its own round's leader would otherwise deadlock waiting
// on work that has not been submitted yet. An in-round duplicate counts
// as coalesced+hit, because it genuinely waited on the in-flight leader.
//
// The cache.hit/miss/leaderpanic events this call emits are parented
// under sp and delivered to sp's sink, so on a shared pipeline each job
// sees only its own cache traffic. ss, costs and errs never reach the
// inner evaluator (the misses travel in pooled scratch), so a round of
// one over stack buffers stays allocation-free on a hit.
func (c *Cache) EvaluateRound(sp *obs.Span, a hw.Accel, ss []sched.Schedule, l workload.Layer,
	costs []maestro.Cost, errs []error) {

	if len(ss) == 0 {
		return
	}
	t := c.table(a, l)
	var slotBuf [stackRound]uint32
	var roleBuf [stackRound]itemRole
	slots, roles := slotBuf[:], roleBuf[:]
	if len(ss) > stackRound {
		sc := roundScratchPool.Get().(*roundScratch)
		defer roundScratchPool.Put(sc)
		slots, roles = sc.reset(len(ss))
	}
	var miss *cacheMiss
	var follow int

	// Phase 1: answer every settled slot and claim every new schedule.
	t.mu.Lock()
	for i := range ss {
		k, ok := packSchedule(&ss[i])
		slot := uint32(noSlot)
		if ok {
			s, indexed := t.index[k]
			st := slotWithdrawn
			if indexed {
				st = t.state(s)
			}
			switch st {
			case slotInFlight:
				slots[i], roles[i] = s, roleFollower
				follow++
				continue
			case slotValid, slotInvalid:
				roles[i] = roleHit
				costs[i], errs[i], _ = t.result(s)
				continue
			}
			slot = t.slots.claim()
			t.index[k] = slot
		}
		roles[i] = roleMiss
		if miss == nil {
			miss = cacheMisses.Get().(*cacheMiss)
			miss.reset()
		}
		miss.add(i, ss[i], slot)
	}
	t.mu.Unlock()

	// Phase 2: one inner round for all misses. If the inner evaluator
	// panics (no guard below the cache), every slot this round leads is
	// withdrawn and its followers released before the panic propagates,
	// so they retry instead of blocking forever.
	if miss != nil {
		finished := false
		defer func() {
			if finished {
				return
			}
			t.abandon(miss)
			if obs.Active(sp, c.tr) {
				for range miss.idx {
					sp.EmitTo(c.tr, obs.Event{Type: obs.CachePanic})
				}
			}
		}()
		miss.evaluate(c.inner, sp, a, l)
		finished = true

		// Phase 3: publish the leaders' results.
		if kept := t.settle(miss); kept > 0 {
			c.entries.Add(kept)
		}
		c.misses.Add(int64(len(miss.idx)))
		for j, i := range miss.idx {
			if obs.Active(sp, c.tr) {
				sp.EmitTo(c.tr, obs.Event{Type: obs.CacheMiss})
			}
			costs[i], errs[i] = miss.costs[j], miss.errs[j]
		}
		cacheMisses.Put(miss)
	}

	// Phase 4: resolve followers, now that every leader in this round
	// has published. A follower whose leader withdrew the slot
	// (non-memoizable outcome, or a leader panic) sends its item round
	// again on its own, where it retries as a leader.
	if follow > 0 {
		t.mu.Lock()
		for i := range ss {
			if roles[i] != roleFollower {
				continue
			}
			s := slots[i]
			for t.state(s) == slotInFlight {
				t.settled.Wait()
			}
			var ok bool
			if costs[i], errs[i], ok = t.result(s); !ok {
				roles[i] = roleRetry
			}
		}
		t.mu.Unlock()
		c.coalesced.Add(int64(follow))
	}
	var hits int64
	for i := range ss {
		switch roles[i] {
		case roleHit, roleFollower:
			hits++
			if obs.Active(sp, c.tr) {
				sp.EmitTo(c.tr, obs.Event{Type: obs.CacheHit})
			}
		case roleRetry:
			c.EvaluateRound(sp, a, ss[i:i+1], l, costs[i:i+1], errs[i:i+1])
		}
	}
	if hits > 0 {
		c.hits.Add(hits)
	}
}

// roundScratch is the per-item state of a round too large for the
// stack: slots and roles.
type roundScratch struct {
	slots []uint32
	roles []itemRole
}

var roundScratchPool = sync.Pool{New: func() any { return new(roundScratch) }}

func (b *roundScratch) reset(n int) ([]uint32, []itemRole) {
	if cap(b.slots) < n {
		b.slots = make([]uint32, n)
		b.roles = make([]itemRole, n)
	}
	return b.slots[:n], b.roles[:n]
}

// noSlot marks a miss that does not pack, so no slot backs it.
const noSlot = math.MaxUint32

// missSet is the part of a round a memo layer could not answer: each
// miss's position in the round, its schedule, and room for its result,
// so the misses reach the inner evaluator as one round.
type missSet struct {
	idx   []int
	ss    []sched.Schedule
	costs []maestro.Cost
	errs  []error
}

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

// cacheMiss is the miss set of one Cache round with the slot each miss
// leads (noSlot when its schedule does not pack).
type cacheMiss struct {
	missSet
	slots []uint32
}

var cacheMisses = sync.Pool{New: func() any { return new(cacheMiss) }}

func (m *cacheMiss) reset() {
	m.missSet.reset()
	m.slots = m.slots[:0]
}

func (m *cacheMiss) add(i int, s sched.Schedule, slot uint32) {
	m.missSet.add(i, s)
	m.slots = append(m.slots, slot)
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
