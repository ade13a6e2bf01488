package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// minTail is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minTail = 10

// tailQuantile returns the quantile a "p90" figure is reported at for n
// samples: 0.90 when at least minTail samples lie beyond it, otherwise
// the highest quantile that still leaves minTail beyond it, and never
// below the median.
func tailQuantile(n int) float64 {
	q := 0.90
	if n <= 0 {
		return 0.5
	}
	if highest := float64(n-minTail) / float64(n); highest < q {
		q = highest
	}
	return math.Max(q, 0.5)
}

// quantile returns the nearest-rank q-quantile of xs (which it sorts).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median returns the middle value of xs (the mean of the two middle
// values for even counts), without reordering the caller's slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// interval is a closed time range in nanoseconds on the benchmark's
// monotonic clock (see nowNS).
type interval struct{ start, end int64 }

// unionNS returns the total length covered by the intervals, counting
// overlapping stretches once. Under two workers the layer calls of two
// goroutines overlap, so summing them would exceed the wall time.
func unionNS(ivs []interval) int64 {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total int64
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.start > cur.end {
			total += cur.end - cur.start
			cur = iv
			continue
		}
		if iv.end > cur.end {
			cur.end = iv.end
		}
	}
	return total + cur.end - cur.start
}

var clockBase = time.Now()

// nowNS reads the monotonic clock as nanoseconds since process start.
func nowNS() int64 { return int64(time.Since(clockBase)) }

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

const (
	metricAllocBytes = "/gc/heap/allocs:bytes"
	metricLiveBytes  = "/gc/heap/live:bytes"
)

// readMetric reads one uint64 runtime metric without stopping the world.
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// phase measures one timed phase: wall time, process CPU time, bytes
// allocated, and the heap the phase retains at its end.
type phase struct {
	wall0 time.Time
	cpu0  float64
	alloc uint64
}

type phaseResult struct {
	wallS, cpuS, allocMB, retainedMB float64
}

func startPhase() *phase {
	runtime.GC()
	p := &phase{alloc: readMetric(metricAllocBytes), cpu0: cpuSeconds()}
	p.wall0 = time.Now()
	return p
}

// stop ends the phase. The retained heap is the live heap after a full
// collection, taken while the caller still holds what the phase built
// (its memo cache, journal index and results).
func (p *phase) stop() phaseResult {
	wall := time.Since(p.wall0)
	cpu := cpuSeconds() - p.cpu0
	alloc := readMetric(metricAllocBytes) - p.alloc
	runtime.GC()
	const mb = 1 << 20
	return phaseResult{
		wallS:      wall.Seconds(),
		cpuS:       cpu,
		allocMB:    float64(alloc) / mb,
		retainedMB: float64(readMetric(metricLiveBytes)) / mb,
	}
}
