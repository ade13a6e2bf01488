package sched

import (
	"math/rand"
	"testing"

	"spotlight/internal/workload"
)

// referenceRandom is Constraint.Random as it was before the per-layer
// Sampler, kept verbatim as the reference for the draw order: every
// divisor list looked up per draw, FitTiles recomputed per draw.
func referenceRandom(c Constraint, rng *rand.Rand, l workload.Layer, rfBytesPerPE, l2Bytes int64) Schedule {
	var s Schedule
	s.OuterUnroll = c.outerChoices()[rng.Intn(len(c.outerChoices()))]
	s.InnerUnroll = c.innerChoices()[rng.Intn(len(c.innerChoices()))]
	s.OuterOrder = referenceOrderFrom(c.FixedOuterOrder, rng)
	s.InnerOrder = referenceOrderFrom(c.FixedInnerOrder, rng)

	if c.TilableDims != nil {
		s.T1, s.T2 = FitTiles(l, rfBytesPerPE, l2Bytes)
	}
	for i, d := range workload.AllDims {
		if !c.tilable(d) {
			continue
		}
		size := l.Size(d)
		divs := Divisors(size)
		t2v := divs[rng.Intn(len(divs))]
		subDivs := Divisors(t2v)
		t1v := subDivs[rng.Intn(len(subDivs))]
		s.T2[i], s.T1[i] = t2v, t1v
	}
	return s
}

func referenceOrderFrom(fixed []workload.Dim, rng *rand.Rand) [workload.NumDims]workload.Dim {
	var out [workload.NumDims]workload.Dim
	if len(fixed) == workload.NumDims {
		copy(out[:], fixed)
		return out
	}
	copy(out[:], workload.AllDims[:])
	rng.Shuffle(workload.NumDims, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// everyConstraint lists every schedule space the strategies search.
func everyConstraint() []Constraint {
	cs := []Constraint{Free(), MAERILike()}
	for _, df := range FixedDataflows() {
		cs = append(cs, df, SpotlightF(df), df.WithTilingSearch())
	}
	return cs
}

// TestSamplerMatchesReferenceDrawOrder checks that a per-layer Sampler,
// drawn from repeatedly in place, and the one-shot Constraint.Random both
// return exactly the reference implementation's schedules, that the
// in-place draw's trip counts are the schedule's OuterTrips/InnerTrips,
// and that both leave the RNG in exactly the same state, for every constraint on every layer of
// ResNet-50, MobileNetV2 and Transformer at several buffer capacities.
func TestSamplerMatchesReferenceDrawOrder(t *testing.T) {
	caps := [][2]int64{{512, 108 << 10}, {64, 16 << 10}, {4 << 10, 4 << 20}, {1, 1}}
	const draws = 8
	models := []workload.Model{workload.ResNet50(), workload.MobileNetV2(), workload.Transformer()}
	seed := int64(0)
	for _, c := range everyConstraint() {
		for _, m := range models {
			for _, l := range m.Layers {
				for _, cp := range caps {
					seed++
					ref := rand.New(rand.NewSource(seed))
					perLayer := rand.New(rand.NewSource(seed))
					oneShot := rand.New(rand.NewSource(seed))
					smp := c.Sampler(l, cp[0], cp[1])
					for k := 0; k < draws; k++ {
						want := referenceRandom(c, ref, l, cp[0], cp[1])
						var got Schedule
						var n2, n1 [workload.NumDims]int
						smp.DrawInto(perLayer, &got, &n2, &n1)
						if got != want {
							t.Fatalf("%s %s/%s caps %v draw %d: Sampler %v, reference %v", c.Name, m.Name, l.Name, cp, k, got, want)
						}
						if n2 != want.OuterTrips(l) || n1 != want.InnerTrips(l) {
							t.Fatalf("%s %s/%s caps %v draw %d: trips %v/%v, want %v/%v", c.Name, m.Name, l.Name, cp, k,
								n2, n1, want.OuterTrips(l), want.InnerTrips(l))
						}
						if got := c.Random(oneShot, l, cp[0], cp[1]); got != want {
							t.Fatalf("%s %s/%s caps %v draw %d: Random %v, reference %v", c.Name, m.Name, l.Name, cp, k, got, want)
						}
					}
					next := ref.Int63()
					if a, b := perLayer.Int63(), oneShot.Int63(); a != next || b != next {
						t.Fatalf("%s %s/%s caps %v: RNG state diverged (reference next %d, Sampler %d, Random %d)", c.Name, m.Name, l.Name, cp, next, a, b)
					}
				}
			}
		}
	}
}

// TestSamplerBuildsWithoutAllocating pins that a layer search's sampler
// set-up does no heap work once the layer's extents have been seen, and
// that a draw allocates nothing.
func TestSamplerBuildsWithoutAllocating(t *testing.T) {
	l := workload.ResNet50().Layers[6]
	rng := rand.New(rand.NewSource(1))
	for _, c := range everyConstraint() {
		c.Sampler(l, 512, 108<<10)
		var smp Sampler
		if n := testing.AllocsPerRun(20, func() { smp = c.Sampler(l, 512, 108<<10) }); n != 0 {
			t.Errorf("%s: building a sampler allocates %v times", c.Name, n)
		}
		if n := testing.AllocsPerRun(20, func() { _ = smp.Draw(rng) }); n != 0 {
			t.Errorf("%s: a draw allocates %v times", c.Name, n)
		}
		var s Schedule
		var n2, n1 [workload.NumDims]int
		if n := testing.AllocsPerRun(20, func() { smp.DrawInto(rng, &s, &n2, &n1) }); n != 0 {
			t.Errorf("%s: an in-place draw allocates %v times", c.Name, n)
		}
	}
}

// TestIntnMatchesRandIntn checks the sampler's bounded draw against
// rand.Intn for every n in 1..4096 (powers of two included) over many
// seeds: the same values, then the same next Int63.
func TestIntnMatchesRandIntn(t *testing.T) {
	for n := 1; n <= 4096; n++ {
		max := intnMax(n)
		for seed := int64(0); seed < 8; seed++ {
			seed := int64(n)*8 + seed
			ref := rand.New(rand.NewSource(seed))
			got := rand.New(rand.NewSource(seed))
			for k := 0; k < 16; k++ {
				if a, b := intn(got, n, max), ref.Intn(n); a != b {
					t.Fatalf("n=%d seed=%d draw %d: intn %d, rand.Intn %d", n, seed, k, a, b)
				}
			}
			if a, b := got.Int63(), ref.Int63(); a != b {
				t.Fatalf("n=%d seed=%d: RNG state diverged (%d vs %d)", n, seed, a, b)
			}
		}
	}
}

// TestIntnRejectsLikeRandIntn drives the rejection branch, which the
// small n of a divisor list almost never reach: near 1<<31 a third of
// all Int31 values are rejected.
func TestIntnRejectsLikeRandIntn(t *testing.T) {
	for _, n := range []int{1<<30 + 1, 1<<31 - 1, 3 << 29, 1 << 30} {
		max := intnMax(n)
		ref := rand.New(rand.NewSource(int64(n)))
		got := rand.New(rand.NewSource(int64(n)))
		for k := 0; k < 1000; k++ {
			if a, b := intn(got, n, max), ref.Intn(n); a != b {
				t.Fatalf("n=%d draw %d: intn %d, rand.Intn %d", n, k, a, b)
			}
		}
		if a, b := got.Int63(), ref.Int63(); a != b {
			t.Fatalf("n=%d: RNG state diverged (%d vs %d)", n, a, b)
		}
	}
}

// TestShuffleOrderMatchesRandShuffle checks the written-out shuffle
// against rand.Shuffle on a [7]Dim: the same permutation, then the same
// next Int63.
func TestShuffleOrderMatchesRandShuffle(t *testing.T) {
	for seed := int64(0); seed < 20000; seed++ {
		ref := rand.New(rand.NewSource(seed))
		got := rand.New(rand.NewSource(seed))
		want := workload.AllDims
		ref.Shuffle(workload.NumDims, func(i, j int) { want[i], want[j] = want[j], want[i] })
		order := workload.AllDims
		shuffleOrder(&order, got)
		if order != want {
			t.Fatalf("seed %d: shuffleOrder %v, rand.Shuffle %v", seed, order, want)
		}
		if a, b := got.Int63(), ref.Int63(); a != b {
			t.Fatalf("seed %d: RNG state diverged (%d vs %d)", seed, a, b)
		}
	}
}
