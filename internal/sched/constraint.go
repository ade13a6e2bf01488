package sched

import (
	"math/rand"

	"spotlight/internal/workload"
)

// Constraint restricts the software design space. Spotlight searches the
// unconstrained space (Free); hand-designed accelerators and prior
// co-design tools search restricted spaces, which is central to the
// paper's comparison (§VII-A: "ConfuciuX and HASCO produce inefficient
// designs primarily because of their limited design spaces").
type Constraint struct {
	Name string

	// OuterUnrollChoices / InnerUnrollChoices list the dimensions the
	// schedule may spatially unroll at each level. A single-element list
	// pins the dataflow's unrolling.
	OuterUnrollChoices []workload.Dim
	InnerUnrollChoices []workload.Dim

	// FixedOuterOrder / FixedInnerOrder pin the loop orders; nil means
	// the order is free (sampled uniformly over permutations).
	FixedOuterOrder []workload.Dim
	FixedInnerOrder []workload.Dim

	// TilableDims lists the dimensions whose tiling factors are searched.
	// Dimensions not listed get heuristic greedy-fit tiles (see FitTiles).
	// nil means every dimension is searched.
	TilableDims []workload.Dim
}

// Free returns the unconstrained Spotlight software space of §IV-A2:
// all loop orders, all unroll dimensions, all divisor tilings.
func Free() Constraint {
	return Constraint{Name: "free"}
}

// everyDim lists the seven dims, shared read-only as the unroll choices
// of an unconstrained level.
var everyDim = workload.AllDims[:]

// EyerissLike returns the rigid row-stationary-style dataflow attributed
// to Eyeriss in the paper: X/Y spatial unrolling with a weight-stationary
// loop order (weight dimensions outermost so filter tiles stay resident).
func EyerissLike() Constraint {
	order := []workload.Dim{workload.DimK, workload.DimC, workload.DimR, workload.DimS,
		workload.DimN, workload.DimY, workload.DimX}
	return Constraint{
		Name:               "eyeriss-like",
		OuterUnrollChoices: []workload.Dim{workload.DimY},
		InnerUnrollChoices: []workload.Dim{workload.DimX},
		FixedOuterOrder:    order,
		FixedInnerOrder:    order,
		TilableDims:        []workload.Dim{},
	}
}

// NVDLALike returns the NVDLA-style dataflow: K/C spatial unrolling with
// an output-stationary loop order (output dimensions outermost, reduction
// dimensions innermost).
func NVDLALike() Constraint {
	order := []workload.Dim{workload.DimN, workload.DimK, workload.DimX, workload.DimY,
		workload.DimC, workload.DimR, workload.DimS}
	return Constraint{
		Name:               "nvdla-like",
		OuterUnrollChoices: []workload.Dim{workload.DimK},
		InnerUnrollChoices: []workload.Dim{workload.DimC},
		FixedOuterOrder:    order,
		FixedInnerOrder:    order,
		TilableDims:        []workload.Dim{},
	}
}

// ShiDianNaoLike returns the ShiDianNao-style dataflow: output-stationary
// with X/Y spatial unrolling, the third fixed schedule ConfuciuX selects
// among.
func ShiDianNaoLike() Constraint {
	order := []workload.Dim{workload.DimN, workload.DimK, workload.DimC,
		workload.DimX, workload.DimY, workload.DimR, workload.DimS}
	return Constraint{
		Name:               "shidiannao-like",
		OuterUnrollChoices: []workload.Dim{workload.DimX},
		InnerUnrollChoices: []workload.Dim{workload.DimY},
		FixedOuterOrder:    order,
		FixedInnerOrder:    order,
		TilableDims:        []workload.Dim{},
	}
}

// MAERILike returns the flexible-dataflow space attributed to MAERI: free
// unrolling and loop orders (the reconfigurable interconnect can realize
// arbitrary mappings), with full tiling freedom. MAERI's rigidity is in
// its fixed hardware, not its software.
func MAERILike() Constraint {
	c := Free()
	c.Name = "maeri-like"
	return c
}

// FixedDataflows returns the three rigid dataflow constraints that
// ConfuciuX (and Spotlight-F) select among.
func FixedDataflows() []Constraint {
	return []Constraint{EyerissLike(), NVDLALike(), ShiDianNaoLike()}
}

// SpotlightF returns the Spotlight-F space of §VII-E: the given fixed
// dataflow's orders and unrolls, but with tiling searched only in the K
// and C dimensions.
func SpotlightF(dataflow Constraint) Constraint {
	dataflow.Name = "spotlight-f/" + dataflow.Name
	dataflow.TilableDims = []workload.Dim{workload.DimK, workload.DimC}
	return dataflow
}

// WithTilingSearch relaxes a rigid dataflow so that all tiling factors
// are searched while the loop orders and unroll dimensions stay pinned.
// This is how the hand-designed accelerators are evaluated in §VII:
// their dataflows are fixed in silicon, but mapping a layer onto them
// still involves choosing tile sizes, which daBO_SW optimizes.
func (c Constraint) WithTilingSearch() Constraint {
	c.Name += "+tiling"
	c.TilableDims = nil
	return c
}

// outerChoices returns the effective outer-unroll choices.
func (c Constraint) outerChoices() []workload.Dim {
	if len(c.OuterUnrollChoices) == 0 {
		return everyDim
	}
	return c.OuterUnrollChoices
}

// innerChoices returns the effective inner-unroll choices.
func (c Constraint) innerChoices() []workload.Dim {
	if len(c.InnerUnrollChoices) == 0 {
		return everyDim
	}
	return c.InnerUnrollChoices
}

// tilable reports whether dimension d's tiling is searched under c.
func (c Constraint) tilable(d workload.Dim) bool {
	if c.TilableDims == nil {
		return true
	}
	for _, t := range c.TilableDims {
		if t == d {
			return true
		}
	}
	return false
}

// Random samples a uniformly random schedule from the constrained space.
// Heuristically tiled (non-searchable) dimensions are greedily fit to the
// provided per-PE register file and L2 scratchpad capacities so that
// rigid-dataflow baselines produce mostly valid schedules, mirroring how
// hand-designed accelerators ship with working tilings. Searchable
// dimensions draw independent divisor pairs, which may or may not fit —
// those are the invalid regions the cost model rejects. Random is a
// one-shot Sampler; a search drawing many schedules for one layer builds
// the Sampler once instead.
func (c Constraint) Random(rng *rand.Rand, l workload.Layer, rfBytesPerPE, l2Bytes int64) Schedule {
	s := c.Sampler(l, rfBytesPerPE, l2Bytes)
	return s.Draw(rng)
}

// Sampler draws random schedules from one constraint's space for one
// layer and one pair of RF/L2 capacities. Everything a draw needs that
// does not depend on the RNG is resolved when the sampler is built: the
// effective unroll choices, the fixed loop orders, the FitTiles tiles of
// the non-searched dimensions, and each searched dimension's divisor
// table. Draw is the one place the order of a schedule's RNG draws is
// written.
type Sampler struct {
	// base holds the non-searched tiles and the fixed loop orders; a
	// free order starts from the canonical one and is shuffled per draw.
	base                       Schedule
	outer, inner               []workload.Dim
	shuffleOuter, shuffleInner bool
	// tiles[i] is dimension i's tiling table, nil when it is not searched.
	tiles [workload.NumDims]*tilingTable
}

// Sampler builds the schedule sampler for layer l under c. Its tables are
// memoized per extent and shared, so building one does no heap work once
// the layer's extents have been seen.
func (c Constraint) Sampler(l workload.Layer, rfBytesPerPE, l2Bytes int64) Sampler {
	s := Sampler{outer: c.outerChoices(), inner: c.innerChoices()}
	s.base.OuterOrder, s.shuffleOuter = startOrder(c.FixedOuterOrder)
	s.base.InnerOrder, s.shuffleInner = startOrder(c.FixedInnerOrder)
	// Heuristically fit the non-searchable dimensions (none under Free);
	// Draw resamples the searchable ones uniformly over divisor pairs.
	if c.TilableDims != nil {
		s.base.T1, s.base.T2 = FitTiles(l, rfBytesPerPE, l2Bytes)
	}
	for i, d := range workload.AllDims {
		if c.tilable(d) {
			s.tiles[i] = tilingTableFor(l.Size(d))
		}
	}
	return s
}

// Draw samples one schedule: the unroll dimensions, then any free loop
// orders, then an L2 tile and an RF tile under it for each searched
// dimension in AllDims order.
func (s *Sampler) Draw(rng *rand.Rand) (out Schedule) {
	out = s.base
	out.OuterUnroll = s.outer[rng.Intn(len(s.outer))]
	out.InnerUnroll = s.inner[rng.Intn(len(s.inner))]
	if s.shuffleOuter {
		shuffleOrder(&out.OuterOrder, rng)
	}
	if s.shuffleInner {
		shuffleOrder(&out.InnerOrder, rng)
	}
	for i, t := range &s.tiles {
		if t == nil {
			continue
		}
		j := rng.Intn(len(t.divs))
		sub := t.sub[j]
		out.T2[i], out.T1[i] = t.divs[j], sub[rng.Intn(len(sub))]
	}
	return out
}

// startOrder returns the fixed order if one is given, else the canonical
// order and true: a free order is a uniform shuffle of it.
func startOrder(fixed []workload.Dim) (order [workload.NumDims]workload.Dim, free bool) {
	if len(fixed) == workload.NumDims {
		copy(order[:], fixed)
		return order, false
	}
	return workload.AllDims, true
}

func shuffleOrder(order *[workload.NumDims]workload.Dim, rng *rand.Rand) {
	rng.Shuffle(workload.NumDims, func(i, j int) { order[i], order[j] = order[j], order[i] })
}

// Neighbor returns a schedule one mutation away from s within the
// constraint: it perturbs one of the searchable components (a tiling
// factor, an unroll dimension, or a swap in a free loop order). Used by
// the genetic-algorithm baseline.
func (c Constraint) Neighbor(rng *rand.Rand, s Schedule, l workload.Layer) Schedule {
	out := s
	switch rng.Intn(4) {
	case 0: // re-tile one searchable dimension
		var idx []int
		for i, d := range workload.AllDims {
			if c.tilable(d) {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			return out
		}
		i := idx[rng.Intn(len(idx))]
		size := l.Size(workload.AllDims[i])
		divs := Divisors(size)
		out.T2[i] = divs[rng.Intn(len(divs))]
		sub := Divisors(out.T2[i])
		out.T1[i] = sub[rng.Intn(len(sub))]
	case 1: // re-pick an unroll dimension
		if rng.Intn(2) == 0 {
			ch := c.outerChoices()
			out.OuterUnroll = ch[rng.Intn(len(ch))]
		} else {
			ch := c.innerChoices()
			out.InnerUnroll = ch[rng.Intn(len(ch))]
		}
	case 2: // swap two loops in the outer order, if free
		if c.FixedOuterOrder == nil {
			i, j := rng.Intn(workload.NumDims), rng.Intn(workload.NumDims)
			out.OuterOrder[i], out.OuterOrder[j] = out.OuterOrder[j], out.OuterOrder[i]
		}
	case 3: // swap two loops in the inner order, if free
		if c.FixedInnerOrder == nil {
			i, j := rng.Intn(workload.NumDims), rng.Intn(workload.NumDims)
			out.InnerOrder[i], out.InnerOrder[j] = out.InnerOrder[j], out.InnerOrder[i]
		}
	}
	return out
}

// Crossover mixes two schedules dimension-wise (uniform crossover on
// tiles, coin flips on orders and unrolls). Used by the GA baseline.
func Crossover(rng *rand.Rand, a, b Schedule) Schedule {
	out := a
	for i := range workload.AllDims {
		if rng.Intn(2) == 0 {
			out.T2[i], out.T1[i] = b.T2[i], b.T1[i]
		}
	}
	if rng.Intn(2) == 0 {
		out.OuterOrder = b.OuterOrder
	}
	if rng.Intn(2) == 0 {
		out.InnerOrder = b.InnerOrder
	}
	if rng.Intn(2) == 0 {
		out.OuterUnroll = b.OuterUnroll
	}
	if rng.Intn(2) == 0 {
		out.InnerUnroll = b.InnerUnroll
	}
	return out
}

// FitTiles greedily grows per-dimension tiles, innermost level first,
// while the working set fits the given per-PE register file and L2
// scratchpad capacities (in bytes, 8-bit elements). It returns maximal
// divisor tiles under the capacity bound, visiting dimensions round-robin
// so no dimension starves. The resulting schedule is conservative — it is
// how a designer would hand-tile a rigid dataflow.
func FitTiles(l workload.Layer, rfBytesPerPE, l2Bytes int64) (t1, t2 [workload.NumDims]int) {
	for i := range workload.AllDims {
		t1[i], t2[i] = 1, 1
	}
	growLevel(l, &t1, nil, rfBytesPerPE)
	// L2 tiles start from the RF tiles (T1 | T2 invariant).
	t2 = t1
	growLevel(l, &t2, &t1, l2Bytes)
	return t1, t2
}

// growLevel grows tiles round-robin: each pass tries to bump every
// dimension's tile to the next admissible divisor while the footprint
// stays within budget. lower, when non-nil, is the lower-level tiling
// that must keep dividing the grown tiles, so only divisors that are
// multiples of it are admissible.
func growLevel(l workload.Layer, tiles *[workload.NumDims]int, lower *[workload.NumDims]int, budget int64) {
	for {
		grew := false
		for i, d := range workload.AllDims {
			mult := 1
			if lower != nil {
				mult = lower[i]
			}
			next, ok := nextDivisor(l.Size(d), tiles[i], mult)
			if !ok {
				continue
			}
			old := tiles[i]
			tiles[i] = next
			if TileFootprint(l, *tiles) > budget {
				tiles[i] = old
				continue
			}
			grew = true
		}
		if !grew {
			return
		}
	}
}

// nextDivisor returns the smallest divisor of n strictly greater than cur
// that is a multiple of mult.
func nextDivisor(n, cur, mult int) (int, bool) {
	for _, d := range Divisors(n) {
		if d > cur && d%mult == 0 {
			return d, true
		}
	}
	return 0, false
}

// TileFootprint returns the bytes of buffer needed to hold one tile of
// each tensor at 8-bit precision: the input halo region, the weight tile,
// and the output tile.
func TileFootprint(l workload.Layer, t [workload.NumDims]int) int64 {
	tn := int64(t[workload.DimN])
	tk := int64(t[workload.DimK])
	tc := int64(t[workload.DimC])
	tr := int64(t[workload.DimR])
	ts := int64(t[workload.DimS])
	tx := int64(t[workload.DimX])
	ty := int64(t[workload.DimY])
	inX := (tx-1)*int64(l.StrideX) + tr
	inY := (ty-1)*int64(l.StrideY) + ts
	input := tn * tc * inX * inY
	weight := tk * tc * tr * ts
	output := tn * tk * tx * ty
	return input + weight + output
}
