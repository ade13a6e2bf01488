// Command perfbench is the repository's benchmark. It runs one named
// workload through the program's public entry points (engine.RunSearch,
// and engine.NewRunner/Submit/Job.Done for served jobs), checks that
// the designs it produces are the same on every iteration, and prints
// every end-to-end metric by name with its unit. With -trace 1 it
// instead runs traced iterations under the benchmark's own wrappers and
// prints the per-layer metrics. The last line of standard output is the
// result as one JSON object. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// Iteration floors: enough timed iterations for a median, and enough
// traced ones to set the tracing overhead against an untraced one.
const (
	minIterations       = 3
	minTracedIterations = 1
	setupRepeats        = 25 // extra set-ups, beyond one per iteration
)

type benchConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
}

// bench is one workload: an untimed reference pass, then any number of
// fresh instances, each set up, run once and closed.
type bench interface {
	reference(ctx context.Context) error
	referenceDigest() string
	setup(traced bool) (instance, error)
}

type instance interface {
	run(ctx context.Context) (iterOutcome, error)
	close() error
}

// iterOutcome is what one iteration produced.
type iterOutcome struct {
	digest                        string
	ops                           []float64 // per-operation latency, ms
	attempted, failed, infeasible int
	evals                         int64     // evaluations requested by the search loop
	bests                         []float64 // best design delay per feasible search
	layers                        *layerTotals
	jobs                          *jobStats
}

func (o *iterOutcome) add(outcome string, best float64) {
	o.attempted++
	switch outcome {
	case outcomeFailed:
		o.failed++
	case outcomeInfeasible:
		o.infeasible++
	default:
		o.bests = append(o.bests, best)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) add(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := benchConfig{}
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are drawn from")
	fs.IntVar(&cfg.seconds, "seconds", 10, "how long the timed phase runs")
	trace := fs.Int("trace", 0, "1 runs traced iterations and prints the per-layer metrics")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for the served jobs' cache journals")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	w, ok := workloadByName(cfg.workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (workloads: %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, err := runBench(w, cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func runBench(w workloadDef, cfg benchConfig, out io.Writer) (result, error) {
	ctx := context.Background()
	b := w.build(cfg)
	fmt.Fprintf(out, "workload %s seed %d: %s\n", w.name, cfg.seed, w.why)

	if err := b.reference(ctx); err != nil {
		return result{}, fmt.Errorf("reference pass: %w", err)
	}
	ref := b.referenceDigest()
	fmt.Fprintf(out, "reference digest %s\n", ref)

	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // time every set-up from the same, collected heap
		t0 := time.Now()
		inst, err := b.setup(false)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if err := inst.close(); err != nil {
			return result{}, fmt.Errorf("teardown: %w", err)
		}
	}

	var untraced, traced []iterStat
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for i := 0; ; i++ {
		tracedIter := cfg.trace && i%2 == 1
		enough := len(untraced) >= minIterations
		if cfg.trace {
			enough = len(untraced) >= 1 && len(traced) >= minTracedIterations && !tracedIter
		}
		if enough && !time.Now().Before(deadline) {
			break
		}
		runtime.GC()
		t0 := time.Now()
		inst, err := b.setup(tracedIter)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		ph := startPhase()
		o, err := inst.run(ctx)
		pr := ph.stop()
		if cerr := inst.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return result{}, fmt.Errorf("iteration %d: %w", i+1, err)
		}
		kind := "untraced"
		if tracedIter {
			kind = "traced"
		}
		fmt.Fprintf(out, "iteration %d (%s): digest %s search %.3fs cpu %.3fs alloc %.1fMB retained heap %.1fMB\n",
			i+1, kind, o.digest, pr.wallS, pr.cpuS, pr.allocMB, pr.retainedMB)
		if o.digest != ref {
			// Every search or job of the iteration counts as failed.
			o.failed = o.attempted
			fmt.Fprintf(out, "OUTPUT CHECK FAILED: iteration %d digest %s, reference %s\n", i+1, o.digest, ref)
		}
		st := iterStat{phase: pr, outcome: o}
		if tracedIter {
			traced = append(traced, st)
		} else {
			untraced = append(untraced, st)
		}
	}

	all := append(append([]iterStat(nil), untraced...), traced...)
	res := result{Metrics: metricSet{}}
	for _, st := range all {
		res.Attempted += st.outcome.attempted
		res.Failed += st.outcome.failed
	}
	res.Correct = res.Failed == 0

	if !cfg.trace {
		endToEnd(res.Metrics, setups, untraced, out)
		return res, nil
	}
	m, checked, mismatches, err := perLayer(ctx, b, cfg, untraced, traced, out)
	if err != nil {
		return result{}, err
	}
	res.Attempted += checked
	res.Failed += mismatches
	res.Correct = res.Failed == 0
	res.Metrics = m
	return res, nil
}

type iterStat struct {
	phase   phaseResult
	outcome iterOutcome
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// endToEnd computes the end-to-end metrics, each the median over the
// timed iterations of its per-iteration value.
func endToEnd(m metricSet, setups []float64, its []iterStat, out io.Writer) {
	var wall, cpu, alloc, retained, evalRate, opRate, p50, tail, bests []float64
	infeasible, attempted, ops := 0, 0, 0
	for _, st := range its {
		o := st.outcome
		wall = append(wall, st.phase.wallS)
		cpu = append(cpu, st.phase.cpuS)
		alloc = append(alloc, st.phase.allocMB)
		retained = append(retained, st.phase.retainedMB)
		evalRate = append(evalRate, float64(o.evals)/st.phase.wallS)
		opRate = append(opRate, float64(len(o.ops))/st.phase.wallS)
		p50 = append(p50, quantile(o.ops, 0.5))
		tail = append(tail, quantile(o.ops, tailQuantile(len(o.ops))))
		bests = append(bests, o.bests...)
		infeasible += o.infeasible
		attempted += o.attempted
		ops += len(o.ops)
	}
	m.add("setup_s", median(setups), "s")
	m.add("search_s", median(wall), "s")
	m.add("cpu_s", median(cpu), "s")
	m.add("evals_per_s", median(evalRate), "1/s")
	m.add("alloc_mb", median(alloc), "MB")
	m.add("retained_heap_mb", median(retained), "MB")
	m.add("op_p50_ms", median(p50), "ms")
	m.add("op_p90_ms", median(tail), "ms")
	m.add("ops_per_s", median(opRate), "1/s")
	perIter := ops / len(its)
	fmt.Fprintf(out, "iterations %d, set-ups %d, operations %d per iteration (tail reported at p%.0f)\n",
		len(its), len(setups), perIter, tailQuantile(perIter)*100)
	fmt.Fprintf(out, "searches or jobs attempted %d, infeasible %d (ratio %.4f of attempted)\n",
		attempted, infeasible, ratio(float64(infeasible), float64(attempted)))
	fmt.Fprintf(out, "design_delay_geomean %.6g modelled cycles over %d feasible searches or jobs\n",
		geomean(bests), len(bests))
	printMetrics(out, "end-to-end", m)
}

// perLayer computes the per-layer metrics of a traced run. On
// jobs_mixed it also makes the traced direct runs, and it returns how
// many it made and how many of them failed the output check.
func perLayer(ctx context.Context, b bench, cfg benchConfig, untraced, traced []iterStat, out io.Writer) (metricSet, int, int, error) {
	tot := &layerTotals{}
	var jobs []*jobStats
	var tracedWall, untracedWall []float64
	for _, st := range untraced {
		untracedWall = append(untracedWall, st.phase.wallS)
	}
	for _, st := range traced {
		tracedWall = append(tracedWall, st.phase.wallS)
		if l := st.outcome.layers; l != nil {
			tot.merge(l)
		}
		if st.outcome.jobs != nil {
			jobs = append(jobs, st.outcome.jobs)
		}
	}
	checked, mismatches := 0, 0
	if jb, ok := b.(*jobsBench); ok {
		l, n, err := jb.tracedDirect(ctx, out)
		if err != nil {
			return nil, 0, 0, err
		}
		tot.merge(l)
		checked, mismatches = len(jb.distinct), n
	}
	probe := runProbe(tot.probe, cfg.seed)
	overhead := ratio(median(tracedWall), median(untracedWall))
	m := layerMetrics(tot, probe, jobs, overhead)

	fmt.Fprintf(out, "tracing overhead: traced search_s %.3fs / untraced search_s %.3fs = %.3f (base: untraced search_s, %d and %d iterations)\n",
		median(tracedWall), median(untracedWall), overhead, len(tracedWall), len(untracedWall))
	tot.printShares(out)
	fmt.Fprintf(out, "probe: %d pairs, %d suggestions, %d candidates; per suggestion %d×(random %.0fns + transform %.0fns) + dabo %.0fns = %.0fns (traced core.sw_suggest_ns %.0fns)\n",
		probe.pairs, probe.suggestions, probe.candidates, probeCandidates, probe.randomNS, probe.transformNS, probe.suggestNS,
		probeCandidates*(probe.randomNS+probe.transformNS)+probe.suggestNS, m["core.sw_suggest_ns"].Value)
	printMetrics(out, "per-layer", m)
	return m, checked, mismatches, nil
}

// layerMetrics assembles every per-layer metric.
func layerMetrics(tot *layerTotals, probe probeResult, jobs []*jobStats, overhead float64) metricSet {
	m := metricSet{}
	tot.metrics(m)
	probe.metrics(m)
	jobMetrics(m, jobs)
	m.add("trace.overhead_ratio", overhead, "ratio")
	return m
}

func printMetrics(out io.Writer, title string, m metricSet) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%s metrics:\n", title)
	for _, n := range names {
		fmt.Fprintf(out, "  %-28s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
