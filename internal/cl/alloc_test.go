package cl

// Runtime half of the hotalloc contract (internal/analysis/clvet):
// the static analyzer proves the enqueue path does not allocate outside
// caller-owned scratch, and these tests pin the measured consequence —
// enqueue cost is constant in the number of work items. The per-item
// WorkItem previously escaped to the heap through the indirect Body
// call (one allocation per work item); the hoisted WorkItem makes the
// whole ND-range cost a handful of fixed allocations.

import "testing"

// allocKernel is a minimal stateless kernel that still exercises the
// Body indirection the escape analysis has to see through.
func allocKernel() *Kernel {
	return &Kernel{
		Name: "allocprobe",
		Body: func(wi *WorkItem, _ any) {
			wi.Charge(Cost{Items: 1})
		},
	}
}

// TestEnqueueSerialAllocsPerItem asserts the serial enqueue path
// performs zero allocations per work item: the total for a 64× larger
// range is identical, and the fixed per-enqueue overhead stays within a
// small constant budget.
func TestEnqueueSerialAllocsPerItem(t *testing.T) {
	prev := SetDefaultExecMode(Serial)
	defer SetDefaultExecMode(prev)

	q := NewQueue(testDevice())
	k := allocKernel()
	allocsAt := func(n int) float64 {
		return testing.AllocsPerRun(100, func() {
			q.Reset()
			if _, err := q.EnqueueNDRange(k, n); err != nil {
				t.Fatal(err)
			}
		})
	}

	small, large := allocsAt(64), allocsAt(4096)
	if small != large {
		t.Errorf("enqueue allocations scale with global size: %v at 64 items, %v at 4096",
			small, large)
	}
	// One hoisted WorkItem escapes per enqueue; leave headroom for one
	// more fixed allocation, but per-item regressions (4096+) trip the
	// equality check above first.
	if large > 2 {
		t.Errorf("enqueue path makes %v allocations per call, want <= 2", large)
	}
}

// TestEnqueueParallelAllocsPerItem asserts the parallel path allocates
// per worker, not per item: doubling the range must not change the
// allocation count (pool setup dominates; items contribute nothing).
func TestEnqueueParallelAllocsPerItem(t *testing.T) {
	prev := SetDefaultExecMode(Parallel)
	defer SetDefaultExecMode(prev)

	q := NewQueue(testDevice())
	k := allocKernel()
	allocsAt := func(n int) float64 {
		return testing.AllocsPerRun(50, func() {
			q.Reset()
			if _, err := q.EnqueueNDRange(k, n); err != nil {
				t.Fatal(err)
			}
		})
	}

	at4k, at8k := allocsAt(4096), allocsAt(8192)
	// Scheduling noise can shift the pool's fixed cost by a fraction of
	// an allocation between runs; a per-item leak would differ by
	// thousands.
	if diff := at8k - at4k; diff > 64 || diff < -64 {
		t.Errorf("parallel enqueue allocations scale with global size: %v at 4096, %v at 8192",
			at4k, at8k)
	}
}

// BenchmarkEnqueueSerial reports the steady-state enqueue cost;
// b.ReportAllocs keeps the zero-per-item property visible in benchmark
// output.
func BenchmarkEnqueueSerial(b *testing.B) {
	prev := SetDefaultExecMode(Serial)
	defer SetDefaultExecMode(prev)

	q := NewQueue(testDevice())
	k := allocKernel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Reset()
		if _, err := q.EnqueueNDRange(k, 1024); err != nil {
			b.Fatal(err)
		}
	}
}
