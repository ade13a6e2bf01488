package eval

import (
	"io"
	"math/rand"
	"testing"

	"spotlight/internal/core"
	"spotlight/internal/maestro"
	"spotlight/internal/obs"
	"spotlight/internal/sched"
)

// BenchmarkEvalCache measures the memo cache against the bare analytical
// backend: "bare" is the uncached cost of one evaluation, "miss" adds
// the cache's bookkeeping on the cold path (a new accelerator-layer
// pair every call), "miss-round" is the cold path a search takes
// (3-schedule rounds of fresh schedules on one pair), "hit" and
// "concurrent" are the warm path serially and under parallel load. CI
// runs this with -benchtime=1x as a smoke test; see DESIGN.md for
// recorded numbers.
func BenchmarkEvalCache(b *testing.B) {
	const keys = 256
	trs := randomTriples(9, keys)[:keys]

	b.Run("bare", func(b *testing.B) {
		backend, err := Open("maestro")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr := trs[i%keys]
			backend.Evaluate(tr.a, tr.s, tr.l)
		}
	})

	b.Run("miss", func(b *testing.B) {
		pipe := MustFromSpec("maestro,cache", SpecOptions{})
		base := trs[0]
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l := base.l
			l.N = i + 1 // unique batch size per iteration: every call is cold
			pipe.Evaluate(base.a, base.s, l)
		}
	})

	b.Run("miss-round", func(b *testing.B) {
		// Rounds of three, the mean round of a random or genetic search,
		// over a pool of distinct schedules of one pair. Each pass over
		// the pool starts from an empty cache, so every item is a miss.
		const round, rounds = 3, 1024
		base := trs[0]
		ss := distinctSchedules(base, round*rounds)
		costs, errs := make([]maestro.Cost, round), make([]error, round)
		var pipe *Pipeline
		pass := func(from, to int) {
			for j := from; j < to; j++ {
				pipe.EvaluateRound(nil, base.a, ss[j*round:(j+1)*round], base.l, costs, errs)
			}
		}
		// A cold pass allocates at most one object per item, amortized:
		// the inner round's result slices, the table's growth and the
		// arena chunks. The cache adds nothing per item.
		if avg := testing.AllocsPerRun(1, func() {
			pipe = MustFromSpec("maestro,cache", SpecOptions{})
			pass(0, rounds)
		}) / float64(round*rounds); avg > 1 {
			b.Fatalf("cold rounds allocated %.2f objects per item, want <= 1", avg)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i % rounds
			if j == 0 {
				b.StopTimer()
				pipe = MustFromSpec("maestro,cache", SpecOptions{})
				b.StartTimer()
			}
			pass(j, j+1)
		}
	})

	b.Run("hit", func(b *testing.B) {
		pipe := MustFromSpec("maestro,cache", SpecOptions{})
		for _, tr := range trs {
			pipe.Evaluate(tr.a, tr.s, tr.l)
		}
		// The warm path is pinned allocation-free: the packed schedule
		// is a value (no serialization buffer to allocate) and a hit
		// touches nothing but its pair table and the result arena.
		tr := trs[0]
		if avg := testing.AllocsPerRun(100, func() {
			pipe.Evaluate(tr.a, tr.s, tr.l)
		}); avg != 0 {
			b.Fatalf("cache hit allocated %.1f objects/op, want 0", avg)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr := trs[i%keys]
			pipe.Evaluate(tr.a, tr.s, tr.l)
		}
	})

	b.Run("batch-hit", func(b *testing.B) {
		pipe := MustFromSpec("maestro,cache", SpecOptions{})
		// One search-round-shaped batch: 64 schedules against a single
		// (accelerator, layer) pair.
		rng := rand.New(rand.NewSource(3))
		base := trs[0]
		grp := batchGroup{a: base, ss: make([]sched.Schedule, 64)}
		for i := range grp.ss {
			grp.ss[i] = sched.Free().Random(rng, base.l, base.a.RFBytesPerPE(), base.a.L2Bytes())
		}
		pipe.EvaluateBatch(grp.a.a, grp.ss, grp.a.l)
		// A warm batch allocates only the two result slices the
		// interface hands back; keys, entry pointers, and flags live in
		// the pooled scratch.
		if avg := testing.AllocsPerRun(100, func() {
			pipe.EvaluateBatch(grp.a.a, grp.ss, grp.a.l)
		}); avg > 2 {
			b.Fatalf("warm batch allocated %.1f objects/op, want <= 2 (the result slices)", avg)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pipe.EvaluateBatch(grp.a.a, grp.ss, grp.a.l)
		}
	})

	b.Run("concurrent", func(b *testing.B) {
		pipe := MustFromSpec("maestro,cache", SpecOptions{})
		for _, tr := range trs {
			pipe.Evaluate(tr.a, tr.s, tr.l)
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				tr := trs[i%keys]
				i++
				pipe.Evaluate(tr.a, tr.s, tr.l)
			}
		})
	})
}

// distinctSchedules draws n schedules of tr's (accelerator, layer) pair,
// no two alike.
func distinctSchedules(tr triple, n int) []sched.Schedule {
	rng := rand.New(rand.NewSource(5))
	seen := make(map[sched.Schedule]bool, n)
	out := make([]sched.Schedule, 0, n)
	for len(out) < n {
		s := sched.Free().Random(rng, tr.l, tr.a.RFBytesPerPE(), tr.a.L2Bytes())
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// BenchmarkTraceOverhead measures what observing costs an evaluation
// pipeline. "bare" is the backend with no layers; "untraced" is
// FromSpec's default pipeline, whose always-present trace layer times
// and counts every round (the cost every run without -trace pays);
// "nil" and "nop" hand-assemble that layer with a nil and a disabled
// obs.Nop tracer; and "jsonl" streams every event to an
// io.Discard-backed JSONL sink — the full cost of -trace minus the
// disk. The acceptance bar is nil/nop within noise of untraced; CI runs
// this with -benchtime=1x as a smoke test.
func BenchmarkTraceOverhead(b *testing.B) {
	const keys = 256
	trs := randomTriples(9, keys)[:keys]
	run := func(b *testing.B, pipe *Pipeline) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr := trs[i%keys]
			pipe.Evaluate(tr.a, tr.s, tr.l)
		}
	}
	b.Run("bare", func(b *testing.B) {
		run(b, Chain(mustOpen(b, "maestro")))
	})
	b.Run("untraced", func(b *testing.B) {
		run(b, MustFromSpec("maestro", SpecOptions{}))
	})
	b.Run("nil", func(b *testing.B) {
		run(b, Chain(mustOpen(b, "maestro"), WithTrace(nil)))
	})
	b.Run("nop", func(b *testing.B) {
		run(b, Chain(mustOpen(b, "maestro"), WithTrace(obs.Nop)))
	})
	b.Run("jsonl", func(b *testing.B) {
		run(b, MustFromSpec("maestro", SpecOptions{Tracer: obs.NewJSONL(io.Discard)}))
	})
}

// mustOpen opens a registered backend or fails the benchmark.
func mustOpen(b *testing.B, name string) core.Evaluator {
	b.Helper()
	backend, err := Open(name)
	if err != nil {
		b.Fatal(err)
	}
	return backend
}
