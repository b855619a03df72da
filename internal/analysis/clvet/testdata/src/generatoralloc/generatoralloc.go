// Testdata for the hotalloc analyzer's reach: a kernel body is a
// hot-path root, so the rule follows the package-local call graph from
// the body literal into the stage function it calls, the candidate
// generator behind that, and the generator's helper — where the per-call
// make sits, two calls away from anything a literal-only check sees.
package generatoralloc

import "repro/internal/cl"

type state struct {
	cands []int32
	table []int64
}

// seed is the stage function the body calls.
func seed(st *state, read []byte, cost *cl.Cost) []int32 {
	st.cands = st.cands[:0]
	generate(st, read, cost)
	return st.cands
}

// generate is the candidate generator: clean itself, it appends only
// into worker state.
func generate(st *state, read []byte, cost *cl.Cost) {
	for _, p := range selectPositions(st, len(read)) {
		st.cands = append(st.cands, int32(p))
	}
	cost.DPCells += int64(len(read))
}

// selectPositions rebuilds its DP table on every call instead of reusing
// st.table — the per-work-item allocation the gate exists to catch.
func selectPositions(st *state, n int) []int64 {
	table := make([]int64, n) // want `hot path allocates with make outside caller-owned scratch`
	for i := range table {
		table[i] = int64(i)
	}
	if cap(st.table) < n {
		st.table = make([]int64, n)
	}
	return table
}

func kernel(reads [][]byte, out [][]int32) *cl.Kernel {
	return &cl.Kernel{
		Name:     "generator",
		NewState: func() any { return &state{} },
		Body: func(wi *cl.WorkItem, s any) {
			cost := cl.Cost{Items: 1}
			out[wi.Global] = seed(s.(*state), reads[wi.Global], &cost)
			wi.Charge(cost)
		},
	}
}
