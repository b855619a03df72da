package clvet_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/clvet"
)

// TestPipeDeterminism loads its testdata as internal/core, a package
// in the analyzer's built-in scope.
func TestPipeDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata", clvet.PipeDeterminism, "internal/core")
}

func TestHotAlloc(t *testing.T) {
	analysistest.Run(t, "testdata", clvet.HotAlloc, "hotalloc")
}

func TestHotAllocPrefilter(t *testing.T) {
	analysistest.Run(t, "testdata", clvet.HotAlloc, "prefilterhot")
}

func TestKernelAlloc(t *testing.T) {
	analysistest.Run(t, "testdata", clvet.HotAlloc, "kernelalloc")
}

func TestKernelAllocPrefilter(t *testing.T) {
	analysistest.Run(t, "testdata", clvet.HotAlloc, "prefilteralloc")
}

// TestKernelAllocReachesGenerator is the call-graph case: the per-call
// make sits in a helper of a generator two calls below the stage
// function a hot-path root calls.
func TestKernelAllocReachesGenerator(t *testing.T) {
	analysistest.Run(t, "testdata", clvet.HotAlloc, "generatoralloc")
}

func TestDirective(t *testing.T) {
	analysistest.Run(t, "testdata", clvet.Directive, "directive")
}

func TestAnalyzers(t *testing.T) {
	want := []string{"pipedeterminism", "hotalloc", "directive"}
	var got []string
	for _, a := range clvet.Analyzers() {
		got = append(got, a.Name)
	}
	if len(got) != len(want) {
		t.Fatalf("Analyzers() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Analyzers() = %v, want %v", got, want)
		}
	}
}
