package clvet_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/clvet"
)

func TestKernelCapture(t *testing.T) {
	analysistest.Run(t, "testdata", clvet.KernelCapture, "kernelcapture")
}

func TestKernelCapturePrefilter(t *testing.T) {
	analysistest.Run(t, "testdata", clvet.KernelCapture, "prefiltercapture")
}

// TestKernelAlloc and TestKernelAllocPrefilter hold the allocation rule
// to everything the retired kernelalloc analyzer reported in kernel
// bodies; TestHotAlloc* cover //repute:hotpath functions.
func TestKernelAlloc(t *testing.T) {
	analysistest.Run(t, "testdata", clvet.HotAlloc, "kernelalloc")
}

func TestKernelAllocPrefilter(t *testing.T) {
	analysistest.Run(t, "testdata", clvet.HotAlloc, "prefilteralloc")
}

// TestKernelAllocReachesGenerator is the call-graph case: the per-call
// make sits in a helper of a generator that only the kernel body calls.
func TestKernelAllocReachesGenerator(t *testing.T) {
	analysistest.Run(t, "testdata", clvet.HotAlloc, "generatoralloc")
}

func TestKernelDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata", clvet.KernelDeterminism, "kerneldeterminism")
}

func TestCostCharge(t *testing.T) {
	analysistest.Run(t, "testdata", clvet.CostCharge, "costcharge")
}

func TestCostChargePrefilter(t *testing.T) {
	analysistest.Run(t, "testdata", clvet.CostCharge, "prefiltercost")
}

func TestPipeDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata", clvet.PipeDeterminism, "pipedeterminism")
}

func TestLockGuard(t *testing.T) {
	analysistest.Run(t, "testdata", clvet.LockGuard, "lockguard")
}

func TestLockGuardBreaker(t *testing.T) {
	analysistest.Run(t, "testdata", clvet.LockGuard, "breakerguard")
}

func TestErrWrap(t *testing.T) {
	analysistest.Run(t, "testdata", clvet.ErrWrap, "errwrap")
}

func TestTraceDisc(t *testing.T) {
	analysistest.Run(t, "testdata", clvet.TraceDisc, "tracedisc")
}

func TestHotAlloc(t *testing.T) {
	analysistest.Run(t, "testdata", clvet.HotAlloc, "hotalloc")
}

func TestHotAllocPrefilter(t *testing.T) {
	analysistest.Run(t, "testdata", clvet.HotAlloc, "prefilterhot")
}

func TestDirective(t *testing.T) {
	analysistest.Run(t, "testdata", clvet.Directive, "directive")
}

func TestAnalyzers(t *testing.T) {
	want := []string{"kernelcapture", "kerneldeterminism", "costcharge", "pipedeterminism",
		"lockguard", "errwrap", "tracedisc", "hotalloc", "directive"}
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
