package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatchesOutput checks that BENCHMARK.json at the
// repository root lists exactly the workloads and metrics this program
// emits, with the same units.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames())
	}

	e2e := metricSet{}
	st := iterStat{phase: phaseResult{wallS: 1, cpuS: 1, allocMB: 1, retainedMB: 1}, outcome: iterOutcome{ops: []float64{1}, evals: 1}}
	endToEnd(e2e, []float64{1}, []iterStat{st}, io.Discard)
	check := func(kind string, listed []struct{ Name, Unit string }, got metricSet) {
		want := map[string]string{}
		for _, m := range listed {
			want[m.Name] = m.Unit
		}
		for name, m := range got {
			if u, ok := want[name]; !ok || u != m.Unit {
				t.Errorf("%s metric %s (%s) is not listed in BENCHMARK.json with that unit", kind, name, m.Unit)
			}
		}
		for name := range want {
			if _, ok := got[name]; !ok {
				t.Errorf("BENCHMARK.json lists %s metric %s, which the program does not emit", kind, name)
			}
		}
	}
	check("end-to-end", spec.EndToEnd, e2e)
	check("per-layer", spec.PerLayer, layerMetrics(&layerTotals{}, probeResult{}, nil, 1))

	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			t.Errorf("workload %s listed twice", sorted[i])
		}
	}
}
