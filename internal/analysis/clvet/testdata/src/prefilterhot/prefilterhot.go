// Testdata for the hotalloc analyzer against the pre-alignment filter
// hot path: Prepare/Accept run once per candidate window, so every mask
// and register must live in receiver-owned scratch — a fresh slice per
// call would dominate the filter's own cost.
package prefilterhot

import "fmt"

type filterState struct {
	peq [4][]uint64
	acc []uint64
	m   []uint64
}

// Accept is the per-candidate hot-path root.
//
//repute:hotpath
func (st *filterState) Accept(window []byte, wp int) bool {
	// Receiver-owned growth is the sanctioned idiom.
	if cap(st.acc) < wp {
		st.acc = make([]uint64, wp)
		st.m = make([]uint64, wp)
	}
	st.acc = st.acc[:wp]
	st.m = st.m[:wp]

	shifted := make([]uint64, wp) // want `hot path allocates with make outside caller-owned scratch`
	for w := 0; w < wp; w++ {
		st.m[w] = st.peq[0][w] & shifted[w]
		st.acc[w] |= st.m[w]
	}
	var ones []int
	for w := 0; w < wp; w++ {
		if st.acc[w] != 0 {
			ones = append(ones, w) // want `hot path appends outside caller-owned scratch`
		}
	}
	return len(ones) > 0
}

// Prepare reaches the same rules transitively through debugLabel.
//
//repute:hotpath
func (st *filterState) Prepare(pattern []byte) string {
	for c := range st.peq {
		st.peq[c] = st.peq[c][:0]
	}
	return debugLabel(len(pattern))
}

func debugLabel(n int) string {
	return fmt.Sprintf("n=%d", n) // want `hot path calls fmt\.Sprintf`
}
