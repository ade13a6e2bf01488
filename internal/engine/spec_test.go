package engine

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestNormalizedFillsSearchDefaults(t *testing.T) {
	s := JobSpec{}.Normalized()
	want := JobSpec{
		Kind: KindSearch, Models: []string{"ResNet-50"}, Scale: "edge",
		Objective: "delay", Strategy: "spotlight", HWSamples: 100,
		SWSamples: 100, Seed: 1, Eval: "maestro",
	}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("Normalized() = %+v, want %+v", s, want)
	}
}

func TestNormalizedLeavesExperimentBudgetsToExp(t *testing.T) {
	s := JobSpec{Kind: KindExperiment, Steps: []string{"fig6"}}.Normalized()
	// Experiment budgets default inside exp.Default()/Paper(); zero here
	// means "the harness default", and must stay zero.
	if s.HWSamples != 0 || s.SWSamples != 0 || s.Trials != 0 {
		t.Fatalf("experiment Normalized() set budgets: %+v", s)
	}
	if s.Seed != 1 || s.Eval != "maestro" || s.Objective != "delay" {
		t.Fatalf("experiment Normalized() missed kind-independent defaults: %+v", s)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		spec JobSpec
		frag string // expected error substring
	}{
		{"unknown kind", JobSpec{Kind: "batch"}, "unknown job kind"},
		{"unknown model", JobSpec{Kind: KindSearch, Models: []string{"NoSuchNet"}}, "NoSuchNet"},
		{"unknown scale", JobSpec{Kind: KindSearch, Scale: "galactic"}, "unknown scale"},
		{"unknown strategy", JobSpec{Kind: KindSearch, Strategy: "simulated-annealing"}, "unknown strategy"},
		{"unknown objective", JobSpec{Kind: KindSearch, Objective: "carbon"}, "unknown objective"},
		{"experiment without steps", JobSpec{Kind: KindExperiment}, "no steps"},
		{"unknown step", JobSpec{Kind: KindExperiment, Steps: []string{"fig99"}}, "unknown experiment step"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.spec.Normalized().Validate()
			if err == nil {
				t.Fatalf("Validate(%+v) = nil, want error containing %q", c.spec, c.frag)
			}
			if !strings.Contains(err.Error(), c.frag) {
				t.Fatalf("Validate error %q does not contain %q", err, c.frag)
			}
		})
	}
}

func TestValidateAcceptsEveryStepKey(t *testing.T) {
	s := JobSpec{Kind: KindExperiment, Steps: StepKeys()}.Normalized()
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate with all step keys: %v", err)
	}
}

// TestSpecJSONRoundTrip pins the wire format: a spec survives
// marshal/unmarshal unchanged, and zero-valued fields are omitted so a
// minimal submission body stays minimal.
func TestSpecJSONRoundTrip(t *testing.T) {
	in := JobSpec{
		Kind: KindExperiment, Steps: []string{"fig6"}, Models: []string{"MobileNetV2"},
		HWSamples: 4, SWSamples: 6, Trials: 1, Eval: "sim,cache", Seed: 7,
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out JobSpec
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip changed the spec:\n in: %+v\nout: %+v", in, out)
	}
	if strings.Contains(string(data), "paper") || strings.Contains(string(data), "scale") {
		t.Fatalf("zero-valued fields not omitted: %s", data)
	}
}
