// Testdata for the hotalloc analyzer against the pre-alignment filter's
// per-read work: the filter's bit masks, window registers and survivor
// lists are amortised worker-state scratch; building them fresh per
// read allocates on-device, which OpenCL 1.2 forbids.
package prefilteralloc

type filterState struct {
	peq  []uint64
	acc  []uint64
	win  []byte
	keep []int
}

// good reuses state-owned masks and window scratch, growing them only
// when a longer read arrives — the amortised idiom of the real filter.
//
//repute:hotpath
func good(st *filterState, read []byte, candOut [][]int, i int) {
	words := (len(read) + 63) / 64
	if cap(st.peq) < words {
		st.peq = make([]uint64, words)
		st.acc = make([]uint64, words)
	}
	st.peq = st.peq[:words]
	st.acc = st.acc[:words]
	st.win = append(st.win[:0], read...)
	st.keep = st.keep[:0]
	candOut[i] = candOut[i][:0]
}

// bad rebuilds every mask and the survivor list per read.
//
//repute:hotpath
func bad(read []byte, candOut [][]int, i int) {
	words := (len(read) + 63) / 64
	peq := make([]uint64, words) // want `hot path allocates with make outside caller-owned scratch`
	acc := make([]uint64, words) // want `hot path allocates with make outside caller-owned scratch`
	var keep []int
	keep = append(keep, i) // want `hot path appends outside caller-owned scratch`
	seen := map[int]bool{} // want `hot path allocates a map literal`
	_ = seen
	_ = peq
	_ = acc
	candOut[i] = keep
}
