package core

import (
	"math"
	"math/rand"
	"testing"

	"spotlight/internal/gp"
	"spotlight/internal/hw"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

func testPoint(seed int64) Point {
	rng := rand.New(rand.NewSource(seed))
	a := hw.EdgeSpace().Random(rng)
	l := workload.Conv("t", 1, 64, 32, 3, 3, 18, 18)
	s := sched.Free().Random(rng, l, a.RFBytesPerPE(), a.L2Bytes())
	return Point{Accel: a, Sched: s, Layer: l}
}

func TestSoftwareFeaturesFiniteAndStable(t *testing.T) {
	fs := SoftwareFeatures()
	if len(fs) < 8 {
		t.Fatalf("only %d software features; Figure 4 defines more", len(fs))
	}
	for seed := int64(0); seed < 50; seed++ {
		p := testPoint(seed)
		v := Transform(fs, p)
		if len(v) != len(fs) {
			t.Fatal("transform length mismatch")
		}
		for i, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("feature %s is %v at seed %d", fs[i].Name, x, seed)
			}
		}
	}
}

func TestPEUtilizationRange(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		p := testPoint(seed)
		u := peUtilization(&Candidate{Point: p})
		if u <= 0 || u > 1 {
			t.Fatalf("utilization %v out of (0,1] at seed %d", u, seed)
		}
	}
}

func TestPEUtilizationPerfectCase(t *testing.T) {
	// Unrolled trip counts exactly matching the array give utilization 1.
	a := hw.Accel{PEs: 64, Width: 8, SIMDLanes: 2, RFKB: 64, L2KB: 64, NoCBW: 64}
	l := workload.Conv("t", 1, 8, 8, 1, 1, 8, 8)
	var s sched.Schedule
	for i, d := range workload.AllDims {
		s.T2[i] = l.Size(d)
		s.T1[i] = l.Size(d)
	}
	// L2-level trips of 8 for both K (over the 8 rows) and C (over the 8
	// columns): T2 = full size, T1 = 1.
	s.T1[workload.DimK] = 1
	s.T1[workload.DimC] = 1
	s.OuterOrder = sched.CanonicalOrder()
	s.InnerOrder = sched.CanonicalOrder()
	s.OuterUnroll = workload.DimK
	s.InnerUnroll = workload.DimC
	u := peUtilization(&Candidate{Point: Point{Accel: a, Sched: s, Layer: l}})
	if math.Abs(u-1) > 1e-12 {
		t.Fatalf("perfect mapping utilization = %v, want 1", u)
	}
}

func TestFeatureNamesUnique(t *testing.T) {
	for _, mode := range []FeatureMode{FeatureSpotlight, FeatureVanilla, FeatureAll} {
		fs := FeaturesFor(mode, false)
		seen := map[string]bool{}
		for _, f := range fs {
			if seen[f.Name] {
				t.Fatalf("duplicate feature name %q in mode %v", f.Name, mode)
			}
			seen[f.Name] = true
		}
	}
}

func TestFeaturesForModes(t *testing.T) {
	sw := FeaturesFor(FeatureSpotlight, false)
	v := FeaturesFor(FeatureVanilla, false)
	all := FeaturesFor(FeatureAll, false)
	if len(all) != len(sw)+len(v) {
		t.Fatalf("FeatureAll has %d features, want %d", len(all), len(sw)+len(v))
	}
	hwF := FeaturesFor(FeatureSpotlight, true)
	if len(hwF) == 0 {
		t.Fatal("no hardware features")
	}
	// Hardware features must not touch the schedule (zero value is fine).
	p := Point{Accel: hw.EyerissEdge().Accel}
	for _, f := range hwF {
		x := f.Fn(&Candidate{Point: p})
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("hardware feature %s not schedule-independent", f.Name)
		}
	}
}

func TestVanillaFeaturesEncodeOrders(t *testing.T) {
	fs := VanillaSoftwareFeatures()
	// 8 scalar params + 4 per dimension.
	want := 8 + 4*workload.NumDims
	if len(fs) != want {
		t.Fatalf("vanilla feature count = %d, want %d", len(fs), want)
	}
	p := testPoint(1)
	v := Transform(fs, p)
	for i, x := range v {
		if math.IsNaN(x) {
			t.Fatalf("vanilla feature %s is NaN", fs[i].Name)
		}
	}
}

func TestNames(t *testing.T) {
	fs := SoftwareFeatures()
	names := Names(fs)
	if len(names) != len(fs) || names[0] != fs[0].Name {
		t.Fatal("Names mismatch")
	}
}

func TestFeatureModeString(t *testing.T) {
	if FeatureSpotlight.String() != "spotlight" ||
		FeatureVanilla.String() != "vanilla" ||
		FeatureAll.String() != "all" {
		t.Fatal("unexpected mode names")
	}
}

func TestPermutationImportanceFindsActiveFeature(t *testing.T) {
	// y depends strongly on feature 0 and not at all on feature 1.
	rng := rand.New(rand.NewSource(9))
	var x [][]float64
	var y []float64
	for i := 0; i < 60; i++ {
		row := []float64{rng.NormFloat64(), rng.NormFloat64()}
		x = append(x, row)
		y = append(y, 10*row[0])
	}
	model := gp.New(gp.Linear{Bias: 1}, 1e-6)
	if err := model.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	imp, err := PermutationImportance(model, x, rng)
	if err != nil {
		t.Fatal(err)
	}
	if imp[0] < 10*imp[1] {
		t.Fatalf("importances %v do not isolate the active feature", imp)
	}
}

func TestPermutationImportanceEmpty(t *testing.T) {
	model := gp.New(gp.Linear{Bias: 1}, 1e-6)
	if _, err := PermutationImportance(model, nil, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("expected error on empty input")
	}
}

func TestObjectiveHelpers(t *testing.T) {
	if MinEDP.String() != "EDP" || MinDelay.String() != "delay" {
		t.Fatal("objective names wrong")
	}
	c := maestroCost(5, 10)
	if MinDelay.LayerCost(c) != 10 {
		t.Fatal("delay layer cost wrong")
	}
	if MinEDP.LayerCost(c) != 50 {
		t.Fatal("EDP layer cost wrong")
	}
	if AggregateObjective(MinDelay, 5, 10) != 10 {
		t.Fatal("delay aggregation wrong")
	}
	if AggregateObjective(MinEDP, 5, 10) != 50 {
		t.Fatal("EDP aggregation wrong")
	}
}
