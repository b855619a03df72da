// Testdata for the hotalloc analyzer's reach: the rule follows the
// package-local call graph from a //repute:hotpath root into the stage
// function it calls, the candidate generator behind that, and the
// generator's helper — where the per-call make sits, two calls below
// the stage function (mapRead → seed → generate → selectPositions).
package generatoralloc

type state struct {
	cands []int32
	table []int64
}

// mapRead is the per-read root.
//
//repute:hotpath
func mapRead(st *state, read []byte) []int32 {
	return seed(st, read)
}

// seed is the stage function the root calls.
func seed(st *state, read []byte) []int32 {
	st.cands = st.cands[:0]
	generate(st, read)
	return st.cands
}

// generate is the candidate generator: clean itself, it appends only
// into worker state.
func generate(st *state, read []byte) {
	for _, p := range selectPositions(st, len(read)) {
		st.cands = append(st.cands, int32(p))
	}
}

// selectPositions rebuilds its table on every call instead of reusing
// st.table — the per-read allocation the gate exists to catch.
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
