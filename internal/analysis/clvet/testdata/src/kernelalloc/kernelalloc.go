// Testdata for the hotalloc analyzer on the per-read work item: OpenCL
// 1.2 kernels cannot allocate; the only sanctioned growth is amortised
// worker-state scratch, outputs are fixed slots, and maps and channels
// do not exist — so even a caller-owned map is flagged.
package kernelalloc

import "fmt"

type state struct {
	buf   []byte
	cands []int
}

// good grows only worker-state scratch, the amortised-reuse idiom the
// real work items use.
//
//repute:hotpath
func good(st *state, reads [][]byte, i int) {
	if cap(st.buf) < len(reads[i]) {
		st.buf = make([]byte, len(reads[i]))
	}
	st.buf = st.buf[:len(reads[i])]
	st.cands = append(st.cands[:0], i)
}

// bad allocates per work item in every way the analyzer forbids.
//
//repute:hotpath
func bad(counts map[int]int, out [][]int, i int) *int {
	tmp := make([]int, 4)  // want `hot path allocates with make outside caller-owned scratch`
	tmp = append(tmp, 1)   // want `hot path appends outside caller-owned scratch`
	n := new(int)          // want `hot path allocates with new outside caller-owned scratch`
	seen := map[int]bool{} // want `hot path allocates a map literal`
	_ = seen
	counts[i] = 1              // want `hot path writes a map`
	delete(counts, 0)          // want `hot path writes a map`
	fresh := make(map[int]int) // want `hot path allocates a map;`
	_ = fresh
	ch := make(chan int, 1) // want `hot path allocates a channel`
	_ = ch
	msg := fmt.Sprintf("%d", i) // want `hot path calls fmt\.Sprintf`
	_ = msg
	out[i] = tmp
	return n
}
