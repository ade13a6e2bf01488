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
// drawn from repeatedly, and the one-shot Constraint.Random both return
// exactly the reference implementation's schedules and leave the RNG in
// exactly the same state, for every constraint on every layer of
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
						if got := smp.Draw(perLayer); got != want {
							t.Fatalf("%s %s/%s caps %v draw %d: Sampler %v, reference %v", c.Name, m.Name, l.Name, cp, k, got, want)
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
	}
}
