package eval

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// fakeEval is a scriptable evaluator that counts how many calls reach it.
type fakeEval struct {
	calls atomic.Int64
	fn    func() (maestro.Cost, error)
}

func (f *fakeEval) Name() string { return "fake" }

func (f *fakeEval) Evaluate(hw.Accel, sched.Schedule, workload.Layer) (maestro.Cost, error) {
	f.calls.Add(1)
	return f.fn()
}

// triple is one evaluation input.
type triple struct {
	a hw.Accel
	s sched.Schedule
	l workload.Layer
}

// randomTriples draws count random design points (deterministically) over
// the edge space, duplicating every third so the cache sees repeats.
func randomTriples(seed int64, count int) []triple {
	rng := rand.New(rand.NewSource(seed))
	space, free := hw.EdgeSpace(), sched.Free()
	m, err := workload.ByName("ResNet-50")
	if err != nil {
		panic(err)
	}
	layers := m.Layers[:4]
	out := make([]triple, 0, count*4/3)
	for i := 0; i < count; i++ {
		l := layers[rng.Intn(len(layers))]
		a := space.Random(rng)
		s := free.Random(rng, l, a.RFBytesPerPE(), a.L2Bytes())
		out = append(out, triple{a, s, l})
		if i%3 == 0 {
			out = append(out, triple{a, s, l})
		}
	}
	return out
}

// costBitsEqual compares two costs field by field on their float64 bit
// patterns, so even NaN-for-NaN agreement counts as identical.
func costBitsEqual(x, y maestro.Cost) bool {
	vx, vy := reflect.ValueOf(x), reflect.ValueOf(y)
	for i := 0; i < vx.NumField(); i++ {
		if math.Float64bits(vx.Field(i).Float()) != math.Float64bits(vy.Field(i).Float()) {
			return false
		}
	}
	return true
}

// unpackedTriples are inputs at and past the edges of the memo cache's
// schedule packing, next to the valid schedule they are edited from:
// tiles wider than 16 bits, zero and negative tiles, and loop dimensions
// outside [0, NumDims), some inside the 4-bit field and some outside.
// Several of them alias the valid schedule if packed with truncation.
// Each appears twice.
func unpackedTriples(seed int64) []triple {
	base := randomTriples(seed, 1)[0]
	edits := []func(s *sched.Schedule){
		func(s *sched.Schedule) {},
		func(s *sched.Schedule) { s.T2[0] += 1 << 16 },
		func(s *sched.Schedule) { s.T1[workload.NumDims-1] = 70000 },
		func(s *sched.Schedule) { s.T2[1] = 0 },
		func(s *sched.Schedule) { s.T1[2] = -1 },
		func(s *sched.Schedule) { s.T1[3] -= 1 << 16 },
		func(s *sched.Schedule) { s.OuterOrder[0] += 16 },
		func(s *sched.Schedule) { s.OuterOrder[1] = workload.NumDims },
		func(s *sched.Schedule) { s.InnerOrder[3] = 15 },
		func(s *sched.Schedule) { s.OuterUnroll = -1 },
		func(s *sched.Schedule) { s.InnerUnroll += 16 },
	}
	var out []triple
	for _, edit := range edits {
		tr := base
		edit(&tr.s)
		out = append(out, tr, tr)
	}
	return out
}

// TestCachedPipelineMatchesBareBackend is the satellite property test: a
// cached pipeline must return byte-identical costs and identically
// classified errors to the bare backend, for every input, including when
// many goroutines hit the same keys concurrently (run under -race), and
// for inputs the cache cannot pack and so passes through unmemoized.
func TestCachedPipelineMatchesBareBackend(t *testing.T) {
	cases := append(randomTriples(42, 60), unpackedTriples(43)...)
	bare := maestro.New()
	type expectation struct {
		cost    maestro.Cost
		ok      bool
		invalid bool
		msg     string
	}
	want := make([]expectation, len(cases))
	for i, c := range cases {
		cost, err := bare.Evaluate(c.a, c.s, c.l)
		want[i] = expectation{cost: cost, ok: err == nil, invalid: errors.Is(err, maestro.ErrInvalid)}
		if err != nil {
			want[i].msg = err.Error()
		}
	}

	pipe := MustFromSpec("maestro,cache", SpecOptions{})
	const workers = 8
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker walks the cases from a different offset, so
			// leaders and followers interleave across keys.
			for i := range cases {
				j := (i + w*7) % len(cases)
				c, exp := cases[j], want[j]
				cost, err := pipe.Evaluate(c.a, c.s, c.l)
				switch {
				case (err == nil) != exp.ok:
					errCh <- fmt.Errorf("case %d: error presence mismatch: %v", j, err)
					return
				case errors.Is(err, maestro.ErrInvalid) != exp.invalid:
					errCh <- fmt.Errorf("case %d: ErrInvalid classification mismatch: %v", j, err)
					return
				case err != nil && err.Error() != exp.msg:
					errCh <- fmt.Errorf("case %d: error %q, want %q", j, err, exp.msg)
					return
				case !costBitsEqual(cost, exp.cost):
					errCh <- fmt.Errorf("case %d: cost %+v not bit-identical to %+v", j, cost, exp.cost)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}

	snap := pipe.Cache().Snapshot()
	wantTotal := int64(workers * len(cases))
	if snap.Hits+snap.Misses != wantTotal {
		t.Fatalf("hits(%d)+misses(%d) != %d calls", snap.Hits, snap.Misses, wantTotal)
	}
	if snap.Hits == 0 {
		t.Fatal("no cache hits despite duplicated inputs and 8 workers")
	}
	if snap.Entries > snap.Misses {
		t.Fatalf("entries %d exceeds misses %d", snap.Entries, snap.Misses)
	}
}

func TestSingleFlightCoalescesConcurrentCallers(t *testing.T) {
	const followers = 7
	var arrived atomic.Int64
	release := make(chan struct{})
	fake := &fakeEval{fn: func() (maestro.Cost, error) {
		<-release
		return maestro.Cost{DelayCycles: 1}, nil
	}}
	cache := WithCache()(fake).(*Cache)
	tr := randomTriples(1, 1)[0]

	var wg sync.WaitGroup
	for i := 0; i < followers+1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arrived.Add(1)
			if _, err := cache.Evaluate(tr.a, tr.s, tr.l); err != nil {
				t.Errorf("Evaluate: %v", err)
			}
		}()
	}
	// Let every goroutine start before the leader's evaluation finishes;
	// all of them then share one inner call.
	for arrived.Load() < followers+1 {
	}
	close(release)
	wg.Wait()

	if got := fake.calls.Load(); got != 1 {
		t.Fatalf("inner evaluator called %d times, want 1", got)
	}
	snap := cache.Snapshot()
	if snap.Hits != followers || snap.Misses != 1 || snap.Entries != 1 {
		t.Fatalf("snapshot = %+v, want hits=%d misses=1 entries=1", snap, followers)
	}
}

func TestInvalidVerdictIsMemoized(t *testing.T) {
	invalid := fmt.Errorf("pe array too small: %w", maestro.ErrInvalid)
	fake := &fakeEval{fn: func() (maestro.Cost, error) { return maestro.Cost{}, invalid }}
	cache := WithCache()(fake).(*Cache)
	tr := randomTriples(2, 1)[0]

	_, err1 := cache.Evaluate(tr.a, tr.s, tr.l)
	_, err2 := cache.Evaluate(tr.a, tr.s, tr.l)
	if !errors.Is(err1, maestro.ErrInvalid) || !errors.Is(err2, maestro.ErrInvalid) {
		t.Fatalf("classification lost: %v / %v", err1, err2)
	}
	if err1.Error() != err2.Error() {
		t.Fatalf("memoized error %q differs from original %q", err2, err1)
	}
	if got := fake.calls.Load(); got != 1 {
		t.Fatalf("inner evaluator called %d times for a memoizable verdict, want 1", got)
	}
	if snap := cache.Snapshot(); snap.Hits != 1 || snap.Entries != 1 {
		t.Fatalf("snapshot = %+v, want one hit and one entry", snap)
	}
}

func TestTransientErrorIsNotMemoized(t *testing.T) {
	fake := &fakeEval{fn: func() (maestro.Cost, error) { return maestro.Cost{}, errors.New("transient fault") }}
	cache := WithCache()(fake).(*Cache)
	tr := randomTriples(3, 1)[0]

	for i := 0; i < 2; i++ {
		if _, err := cache.Evaluate(tr.a, tr.s, tr.l); err == nil {
			t.Fatal("fault swallowed")
		}
	}
	if got := fake.calls.Load(); got != 2 {
		t.Fatalf("inner evaluator called %d times, want 2 (faults must not be cached)", got)
	}
	if snap := cache.Snapshot(); snap.Entries != 0 || snap.Hits != 0 {
		t.Fatalf("snapshot = %+v, want no entries and no hits", snap)
	}
}

func TestLeaderPanicWithdrawsEntry(t *testing.T) {
	first := true
	fake := &fakeEval{fn: func() (maestro.Cost, error) {
		if first {
			first = false
			panic("backend crash")
		}
		return maestro.Cost{DelayCycles: 2}, nil
	}}
	cache := WithCache()(fake).(*Cache)
	tr := randomTriples(4, 1)[0]

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate through the cache")
			}
		}()
		cache.Evaluate(tr.a, tr.s, tr.l)
	}()

	// The panicked entry must be withdrawn: the next caller re-evaluates
	// instead of deadlocking on (or hitting) a dead entry.
	cost, err := cache.Evaluate(tr.a, tr.s, tr.l)
	if err != nil || cost.DelayCycles != 2 {
		t.Fatalf("post-panic Evaluate = %+v, %v", cost, err)
	}
	if got := fake.calls.Load(); got != 2 {
		t.Fatalf("inner evaluator called %d times, want 2", got)
	}
}

// TestLeaderPanicReleasesFollowers: callers waiting on a leader whose
// inner evaluation panics are woken when its slot is withdrawn, and
// retry instead of blocking forever or sharing the dead result.
func TestLeaderPanicReleasesFollowers(t *testing.T) {
	const followers = 7
	var arrived atomic.Int64
	release := make(chan struct{})
	var calls atomic.Int64
	fake := &fakeEval{fn: func() (maestro.Cost, error) {
		if calls.Add(1) == 1 {
			<-release
			panic("backend crash")
		}
		return maestro.Cost{DelayCycles: 2}, nil
	}}
	cache := WithCache()(fake).(*Cache)
	tr := randomTriples(8, 1)[0]

	var panics atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < followers+1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if recover() != nil {
					panics.Add(1)
				}
			}()
			arrived.Add(1)
			cost, err := cache.Evaluate(tr.a, tr.s, tr.l)
			if err != nil || cost.DelayCycles != 2 {
				t.Errorf("follower got %+v, %v", cost, err)
			}
		}()
	}
	for arrived.Load() < followers+1 {
	}
	close(release)
	wg.Wait()

	if got := panics.Load(); got != 1 {
		t.Fatalf("%d callers saw the panic, want 1 (the leader)", got)
	}
	if snap := cache.Snapshot(); snap.Entries != 1 || snap.Hits+snap.Misses != followers {
		t.Fatalf("snapshot = %+v, want 1 entry and %d answered calls", snap, followers)
	}
}

func TestCanonicalKeyIgnoresRepeat(t *testing.T) {
	fake := &fakeEval{fn: func() (maestro.Cost, error) { return maestro.Cost{DelayCycles: 3}, nil }}
	cache := WithCache()(fake).(*Cache)
	tr := randomTriples(5, 1)[0]

	tr.l.Repeat = 1
	cache.Evaluate(tr.a, tr.s, tr.l)
	tr.l.Repeat = 16
	cache.Evaluate(tr.a, tr.s, tr.l)
	if got := fake.calls.Load(); got != 1 {
		t.Fatalf("Repeat-only variants evaluated %d times, want 1 shared entry", got)
	}

	// Any other dimension change is a different key.
	tr.l.K++
	cache.Evaluate(tr.a, tr.s, tr.l)
	if got := fake.calls.Load(); got != 2 {
		t.Fatalf("distinct layer reused a stale entry (calls=%d)", got)
	}
}

// hasPointers reports whether a value of type t holds anything the
// garbage collector must scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	}
	return true
}

// TestMemoStorageIsPointerFree: the per-item key, the per-item index
// entry and the result storage of the memo cache hold no pointers, so
// the collector never scans them however many results a search
// memoizes, and the packed key stays within 128 bytes.
func TestMemoStorageIsPointerFree(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeOf(schedKey{}),
		reflect.TypeOf(pairTable{}.index).Elem(),
		reflect.TypeOf(slotChunk{}),
	} {
		if hasPointers(typ) {
			t.Errorf("%s holds pointers", typ)
		}
	}
	if n := reflect.TypeOf(schedKey{}).Size(); n > 128 {
		t.Errorf("schedKey is %d bytes, want at most 128", n)
	}
	if hasPointers(reflect.TypeOf(sched.Schedule{})) {
		t.Fatal("hasPointers misses a pointer-free struct")
	}
	if !hasPointers(reflect.TypeOf(struct{ err error }{})) {
		t.Fatal("hasPointers misses an interface field")
	}
}

// TestMemoRetainedHeapPerEntry bounds what the memo cache keeps alive
// per memoized valid result, measured after a full collection on
// search-shaped input: many distinct schedules per (accelerator, layer)
// pair, arriving in rounds of three.
func TestMemoRetainedHeapPerEntry(t *testing.T) {
	const pairs, perPair, round, budget = 32, 240, 3, 400
	groups := groupTriples(randomTriples(31, pairs))
	if len(groups) < pairs {
		t.Fatalf("%d distinct pairs drawn, want %d", len(groups), pairs)
	}
	bases := make([]triple, pairs)
	scheds := make([][]sched.Schedule, pairs)
	for p := range bases {
		bases[p] = groups[p].a
		scheds[p] = distinctSchedules(bases[p], perPair)
	}
	var n atomic.Int64
	fake := &fakeEval{fn: func() (maestro.Cost, error) {
		return maestro.Cost{DelayCycles: float64(n.Add(1))}, nil
	}}
	costs, errs := make([]maestro.Cost, round), make([]error, round)

	before := liveHeap()
	cache := WithCache()(fake).(*Cache)
	for p, base := range bases {
		for j := 0; j < perPair; j += round {
			cache.EvaluateRound(nil, base.a, scheds[p][j:j+round], base.l, costs, errs)
		}
	}
	after := liveHeap()
	runtime.KeepAlive(cache)
	runtime.KeepAlive(scheds) // the inputs must not count as freed

	entries := cache.Snapshot().Entries
	if entries != pairs*perPair {
		t.Fatalf("%d entries memoized, want %d distinct schedules", entries, pairs*perPair)
	}
	per := float64(int64(after)-int64(before)) / float64(entries)
	t.Logf("%.0f B retained per memoized result (%d results over %d pairs)", per, entries, pairs)
	if per > budget {
		t.Fatalf("memo cache retains %.0f B per memoized result, want at most %d", per, budget)
	}
}

// liveHeap is the heap in use after a full collection. Two collections
// also empty the sync.Pool victim caches.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
