package eval

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestFromSpecUnknownBackend(t *testing.T) {
	_, err := FromSpec("no-such-backend,cache", SpecOptions{})
	var unknown *UnknownBackendError
	if !errors.As(err, &unknown) {
		t.Fatalf("error %v (%T), want *UnknownBackendError", err, err)
	}
}

func TestFromSpecRejectsMalformedSpecs(t *testing.T) {
	for _, spec := range []string{"", " ", "maestro,", "maestro,,cache", "maestro,turbo"} {
		if _, err := FromSpec(spec, SpecOptions{}); err == nil {
			t.Fatalf("spec %q accepted", spec)
		}
	}
	for _, tok := range []string{"turbo", "stats"} {
		_, err := FromSpec("maestro,"+tok, SpecOptions{})
		if err == nil || !strings.Contains(err.Error(), "(middlewares: cache, diskcache(path=FILE), guard)") {
			t.Fatalf("token %q: unknown-middleware error %v does not list the valid tokens", tok, err)
		}
	}
}

func TestFromSpecLayerSelection(t *testing.T) {
	p := MustFromSpec("sim,cache,guard", SpecOptions{})
	if p.Cache() == nil {
		t.Fatal("cache layer missing")
	}
	// The trace layer sits directly above the backend: it reports the
	// backend's name, and cache hits never reach it.
	if p.trace == nil || p.trace.scope != "sim-hybrid" {
		t.Fatalf("trace layer = %+v, want one wrapping the backend", p.trace)
	}
	if got := p.Name(); got != "guard(sim-hybrid)" {
		t.Fatalf("Name() = %q, want guard(sim-hybrid)", got)
	}
	if p.Spec() != "sim,cache,guard" {
		t.Fatalf("Spec() = %q", p.Spec())
	}
}

func TestFromSpecGuardAutoAppend(t *testing.T) {
	opts := SpecOptions{Guard: GuardOptions{Timeout: time.Second}}
	// A configured guard policy is honored even when the spec omits it...
	p := MustFromSpec("maestro", opts)
	if got := p.Name(); got != "guard(maestro)" {
		t.Fatalf("Name() = %q, want auto-appended guard", got)
	}
	// ...and not doubled when the spec already has one.
	p = MustFromSpec("maestro,guard", opts)
	if got := p.Name(); got != "guard(maestro)" {
		t.Fatalf("Name() = %q, guard appears doubled", got)
	}
	// An unconfigured policy adds nothing.
	p = MustFromSpec("maestro", SpecOptions{})
	if got := p.Name(); got != "maestro" {
		t.Fatalf("Name() = %q, want bare backend", got)
	}
}

func TestMustFromSpecPanicsOnBadSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustFromSpec did not panic")
		}
	}()
	MustFromSpec("no-such-backend", SpecOptions{})
}
