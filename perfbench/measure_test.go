package main

import (
	"math"
	"testing"
)

func TestTailQuantileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{120, 0.90},
		{100, 0.90},
		{60, 50.0 / 60},
		{30, 20.0 / 30},
		{15, 0.5}, // fewer than 20 samples: no tail, report the median
		{0, 0.5},
	} {
		if got := tailQuantile(tc.n); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	for n := 20; n <= 500; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		v := quantile(xs, tailQuantile(n))
		beyond := n - 1 - int(v)
		if beyond < minTail {
			t.Fatalf("n=%d: %d samples beyond the reported tail, want at least %d", n, beyond, minTail)
		}
		if tailQuantile(n) < 0.90 && beyond != minTail {
			t.Fatalf("n=%d: tail below p90 leaves %d beyond, want exactly %d (the highest such percentile)", n, beyond, minTail)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ q, want float64 }{{0.5, 3}, {0.2, 1}, {0.9, 5}, {1, 5}, {0, 1}} {
		if got := quantile(append([]float64(nil), xs...), tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
}

func TestUnionNS(t *testing.T) {
	for _, tc := range []struct {
		name string
		ivs  []interval
		want int64
	}{
		{"empty", nil, 0},
		{"disjoint", []interval{{0, 10}, {20, 25}}, 15},
		{"overlapping", []interval{{0, 10}, {5, 15}}, 15},
		{"nested", []interval{{0, 100}, {10, 20}, {30, 40}}, 100},
		{"touching", []interval{{0, 10}, {10, 20}}, 20},
		{"unsorted two workers", []interval{{50, 60}, {0, 30}, {25, 55}, {70, 71}}, 61},
	} {
		if got := unionNS(tc.ivs); got != tc.want {
			t.Errorf("%s: unionNS = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestSelfTimeIsWallMinusUnion(t *testing.T) {
	// Two workers overlap: summing the children would exceed the wall.
	rec := &layerRecorder{}
	rec.hws = append(rec.hws, &hwWrap{
		suggest: []interval{{0, 10}},
		observe: []interval{{90, 100}},
	})
	rec.sws = append(rec.sws,
		&swWrap{suggest: []interval{{10, 40}}, observe: []interval{{40, 50}}},
		&swWrap{suggest: []interval{{15, 60}}, observe: []interval{{60, 70}}},
	)
	tot := &layerTotals{}
	tot.addSearch(tracedSearch{run: interval{0, 100}, workers: 2, rec: rec, pipe: &evalRecorder{}})
	if tot.selfNS != 20 { // 70..90 is covered by no child
		t.Errorf("selfNS = %d, want 20", tot.selfNS)
	}
	if tot.busyNS != 40+55 || tot.capacityNS != 2*100 {
		t.Errorf("busy %d / capacity %d, want 95 / 200", tot.busyNS, tot.capacityNS)
	}
}
