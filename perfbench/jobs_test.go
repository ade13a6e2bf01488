package main

import (
	"reflect"
	"testing"
)

func TestJobListIsDeterministicPerSeed(t *testing.T) {
	a, b := jobsMixed.jobList(7), jobsMixed.jobList(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two different job lists")
	}
	if reflect.DeepEqual(a, jobsMixed.jobList(8)) {
		t.Fatal("seeds 7 and 8 drew the same job list")
	}
	if len(a) != jobsMixed.jobCount() {
		t.Fatalf("%d jobs, want %d", len(a), jobsMixed.jobCount())
	}
	combos := len(jobsMixed.strategies) * len(jobsMixed.models)
	for start := 0; start+combos <= len(a); start += combos {
		seen := map[string]bool{}
		for _, s := range a[start : start+combos] {
			seen[s.Strategy+"/"+s.Models[0]] = true
		}
		if len(seen) != combos {
			t.Fatalf("block at job %d holds %d of the %d combinations", start, len(seen), combos)
		}
	}
	seeds := map[string]map[int64]bool{}
	uses := map[string]int{}
	for _, s := range a {
		combo := s.Strategy + "/" + s.Models[0]
		if seeds[combo] == nil {
			seeds[combo] = map[int64]bool{}
		}
		seeds[combo][s.Seed] = true
		uses[specKey(s)]++
		if s.Eval != jobsMixed.evalSpec || s.Workers != 1 || s.HWSamples != jobsMixed.hw {
			t.Fatalf("job %+v does not carry the mix's settings", s)
		}
	}
	for combo, pool := range seeds {
		if len(pool) != jobsMixed.seedPool {
			t.Fatalf("%s: %d distinct search seeds, want %d", combo, len(pool), jobsMixed.seedPool)
		}
	}
	for k, n := range uses {
		if n != jobsMixed.uses {
			t.Fatalf("spec %s submitted %d times, want %d", k, n, jobsMixed.uses)
		}
	}
	if d := len(newJobsBench(jobsMixed, 7, t.TempDir()).distinct); d != len(uses) {
		t.Fatalf("%d distinct specs, want %d", d, len(uses))
	}
}
