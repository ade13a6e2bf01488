package core

import (
	"math"
	"math/rand"
	"testing"

	"spotlight/internal/hw"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// refFeature and the ref* feature sets below are the feature definitions
// as they were before features read a *Candidate: each closure takes the
// Point by value and recomputes the trip counts it needs. They are the
// reference the Candidate path must match bit for bit.
type refFeature struct {
	Name string
	Fn   func(Point) float64
}

func refSoftwareFeatures() []refFeature {
	return []refFeature{
		{"simd_lanes", func(p Point) float64 { return float64(p.Accel.SIMDLanes) }},
		{"onchip_bandwidth", func(p Point) float64 { return float64(p.Accel.NoCBW) }},
		{"total_pes", func(p Point) float64 { return float64(p.Accel.PEs) }},
		{"pe_array_width", func(p Point) float64 { return float64(p.Accel.Width) }},
		{"total_onchip_sram", func(p Point) float64 {
			return float64(p.Accel.RFKB + p.Accel.L2KB)
		}},
		{"kernel_parallelism", func(p Point) float64 {
			return lg(float64(p.Sched.T2[workload.DimR] * p.Sched.T2[workload.DimS]))
		}},
		{"degree_of_unrolling", func(p Point) float64 {
			n1 := p.Sched.InnerTrips(p.Layer)
			if p.Sched.OuterUnroll == p.Sched.InnerUnroll {
				return lg(float64(n1[p.Sched.OuterUnroll]))
			}
			return lg(float64(n1[p.Sched.OuterUnroll]) * float64(n1[p.Sched.InnerUnroll]))
		}},
		{"pe_utilization", refPEUtilization},
		{"loop_iterations", func(p Point) float64 {
			return lg(refLoopIterations(p))
		}},
		{"dram_transfers", func(p Point) float64 {
			n2 := p.Sched.OuterTrips(p.Layer)
			return lg(float64(n2[workload.DimX]) * float64(n2[workload.DimY]) *
				float64(p.Accel.Width+p.Accel.Height()))
		}},
		{"common_unrolled_dims", func(p Point) float64 {
			s := p.Sched
			return lg(2*float64(s.T2[workload.DimX]) +
				3*float64(s.T2[workload.DimY]) +
				5*float64(p.Layer.Size(workload.DimK)) +
				7*float64(s.T2[workload.DimK]) +
				11*float64(s.T1[workload.DimK]))
		}},
	}
}

func refPEUtilization(p Point) float64 {
	h, w := p.Accel.Height(), p.Accel.Width
	n1 := p.Sched.InnerTrips(p.Layer)
	uo, ui := p.Sched.OuterUnroll, p.Sched.InnerUnroll
	if uo == ui {
		return float64(n1[uo]) / (float64(ceilDiv(n1[uo], h*w)) * float64(h*w))
	}
	rows := float64(n1[uo]) / (float64(ceilDiv(n1[uo], h)) * float64(h))
	cols := float64(n1[ui]) / (float64(ceilDiv(n1[ui], w)) * float64(w))
	return rows * cols
}

func refLoopIterations(p Point) float64 {
	h, w := p.Accel.Height(), p.Accel.Width
	n2 := p.Sched.OuterTrips(p.Layer)
	n1 := p.Sched.InnerTrips(p.Layer)
	uo, ui := p.Sched.OuterUnroll, p.Sched.InnerUnroll
	if uo == ui {
		n1[uo] = ceilDiv(n1[uo], h*w)
	} else {
		n1[uo] = ceilDiv(n1[uo], h)
		n1[ui] = ceilDiv(n1[ui], w)
	}
	iters := 1.0
	for i := range workload.AllDims {
		iters *= float64(n2[i]) * float64(n1[i])
	}
	return iters
}

func refVanillaSoftwareFeatures() []refFeature {
	fs := []refFeature{
		{"raw_pes", func(p Point) float64 { return float64(p.Accel.PEs) }},
		{"raw_width", func(p Point) float64 { return float64(p.Accel.Width) }},
		{"raw_simd", func(p Point) float64 { return float64(p.Accel.SIMDLanes) }},
		{"raw_rf_kb", func(p Point) float64 { return float64(p.Accel.RFKB) }},
		{"raw_l2_kb", func(p Point) float64 { return float64(p.Accel.L2KB) }},
		{"raw_bw", func(p Point) float64 { return float64(p.Accel.NoCBW) }},
		{"raw_outer_unroll", func(p Point) float64 { return float64(p.Sched.OuterUnroll) }},
		{"raw_inner_unroll", func(p Point) float64 { return float64(p.Sched.InnerUnroll) }},
	}
	for i, d := range workload.AllDims {
		i, d := i, d
		fs = append(fs,
			refFeature{"raw_t2_" + d.String(), func(p Point) float64 { return float64(p.Sched.T2[i]) }},
			refFeature{"raw_t1_" + d.String(), func(p Point) float64 { return float64(p.Sched.T1[i]) }},
			refFeature{"raw_pos_outer_" + d.String(), func(p Point) float64 {
				return float64(orderPosition(p.Sched.OuterOrder, d))
			}},
			refFeature{"raw_pos_inner_" + d.String(), func(p Point) float64 {
				return float64(orderPosition(p.Sched.InnerOrder, d))
			}},
		)
	}
	return fs
}

func refHardwareFeatures() []refFeature {
	return []refFeature{
		{"simd_lanes", func(p Point) float64 { return float64(p.Accel.SIMDLanes) }},
		{"onchip_bandwidth", func(p Point) float64 { return float64(p.Accel.NoCBW) }},
		{"total_pes", func(p Point) float64 { return float64(p.Accel.PEs) }},
		{"pe_array_width", func(p Point) float64 { return float64(p.Accel.Width) }},
		{"pe_array_height", func(p Point) float64 { return float64(p.Accel.Height()) }},
		{"total_onchip_sram", func(p Point) float64 { return float64(p.Accel.RFKB + p.Accel.L2KB) }},
		{"peak_macs", func(p Point) float64 { return lg(float64(p.Accel.PEs * p.Accel.SIMDLanes)) }},
		{"area", func(p Point) float64 { return p.Accel.AreaMM2() }},
		{"peak_power", func(p Point) float64 { return p.Accel.PeakPowerMW() }},
	}
}

func refFeaturesFor(mode FeatureMode, hardware bool) []refFeature {
	switch mode {
	case FeatureVanilla:
		if hardware {
			return refVanillaSoftwareFeatures()[:6]
		}
		return refVanillaSoftwareFeatures()
	case FeatureAll:
		if hardware {
			return append(refHardwareFeatures(), refVanillaSoftwareFeatures()[:6]...)
		}
		return append(refSoftwareFeatures(), refVanillaSoftwareFeatures()...)
	default:
		if hardware {
			return refHardwareFeatures()
		}
		return refSoftwareFeatures()
	}
}

// TestFeaturesMatchReference checks, for every mode at both search
// levels, that the Candidate path (the one-shot Transform and a single
// Candidate reused across points, as a layer search does) produces
// exactly the reference closures' bits, over 10k random points each:
// software points drawn from every constraint on layers of three models
// at edge and cloud scale, and hardware-only points with a zero schedule.
func TestFeaturesMatchReference(t *testing.T) {
	const points = 10000
	var layers []workload.Layer
	for _, m := range []workload.Model{workload.ResNet50(), workload.MobileNetV2(), workload.Transformer()} {
		layers = append(layers, m.Layers...)
	}
	constraints := []sched.Constraint{sched.Free()}
	for _, df := range sched.FixedDataflows() {
		constraints = append(constraints, df, sched.SpotlightF(df), df.WithTilingSearch())
	}
	spaces := []hw.Space{hw.EdgeSpace(), hw.CloudSpace()}
	for _, mode := range []FeatureMode{FeatureSpotlight, FeatureVanilla, FeatureAll} {
		for _, hardware := range []bool{false, true} {
			fs, ref := FeaturesFor(mode, hardware), refFeaturesFor(mode, hardware)
			if len(fs) != len(ref) {
				t.Fatalf("%v hardware=%v: %d features, reference has %d", mode, hardware, len(fs), len(ref))
			}
			rng := rand.New(rand.NewSource(int64(mode)*2 + 1))
			var reused Candidate
			row := make([]float64, len(fs))
			for n := 0; n < points; n++ {
				p := Point{Accel: spaces[n%len(spaces)].Random(rng)}
				if !hardware {
					p.Layer = layers[rng.Intn(len(layers))]
					c := constraints[rng.Intn(len(constraints))]
					p.Sched = c.Random(rng, p.Layer, p.Accel.RFBytesPerPE(), p.Accel.L2Bytes())
				}
				oneShot := Transform(fs, p)
				reused.Point = p
				reused.TransformInto(row, fs)
				for i, f := range ref {
					want := math.Float64bits(f.Fn(p))
					if got := math.Float64bits(oneShot[i]); got != want {
						t.Fatalf("%v hardware=%v point %d feature %s: Transform %v, reference %v",
							mode, hardware, n, f.Name, oneShot[i], f.Fn(p))
					}
					if got := math.Float64bits(row[i]); got != want {
						t.Fatalf("%v hardware=%v point %d feature %s: reused Candidate %v, reference %v",
							mode, hardware, n, f.Name, row[i], f.Fn(p))
					}
				}
			}
		}
	}
}

// TestHardwareFeaturesNeverComputeTrips pins that transforming a
// hardware-only point (zero schedule, whose trip counts would divide by
// zero) never computes trip counts.
func TestHardwareFeaturesNeverComputeTrips(t *testing.T) {
	for _, mode := range []FeatureMode{FeatureSpotlight, FeatureVanilla, FeatureAll} {
		c := Candidate{Point: Point{Accel: hw.EyerissEdge().Accel}}
		fs := FeaturesFor(mode, true)
		c.TransformInto(make([]float64, len(fs)), fs)
		if c.trips {
			t.Fatalf("%v: hardware features computed trip counts", mode)
		}
	}
}
