// Testdata for the hotalloc analyzer on kernel bodies: OpenCL 1.2 kernels cannot
// allocate; the only sanctioned growth is amortised kernel-state
// scratch, outputs are fixed slots, and maps do not exist.
package kernelalloc

import (
	"fmt"

	"repro/internal/cl"
)

type state struct {
	buf   []byte
	cands []int
}

// good grows only NewState-owned scratch, the amortised-reuse idiom the
// real kernels use.
func good(reads [][]byte) *cl.Kernel {
	return &cl.Kernel{
		Name:     "good",
		NewState: func() any { return &state{} },
		Body: func(wi *cl.WorkItem, s any) {
			st := s.(*state)
			if cap(st.buf) < len(reads[wi.Global]) {
				st.buf = make([]byte, len(reads[wi.Global]))
			}
			st.buf = st.buf[:len(reads[wi.Global])]
			st.cands = append(st.cands[:0], wi.Global)
			wi.Charge(cl.Cost{Items: 1, Bytes: int64(len(st.buf))})
		},
	}
}

// bad allocates per work item in every way the analyzer forbids.
func bad(out [][]int) *cl.Kernel {
	return &cl.Kernel{
		Name: "bad",
		Body: func(wi *cl.WorkItem, _ any) {
			tmp := make([]int, 4)       // want `allocates with make outside caller-owned scratch`
			tmp = append(tmp, 1)        // want `appends outside caller-owned scratch`
			p := new(int)               // want `allocates with new outside caller-owned scratch`
			seen := map[int]bool{}      // want `allocates a map literal`
			seen[wi.Global] = true      // want `hot path writes a map`
			delete(seen, 0)             // want `hot path writes a map`
			counts := make(map[int]int) // want `hot path allocates a map;`
			_ = counts
			ch := make(chan int, 1) // want `allocates a channel`
			_ = ch
			msg := fmt.Sprintf("%d", wi.Global) // want `calls fmt\.Sprintf`
			_ = msg
			_ = p
			out[wi.Global] = tmp
			wi.Charge(cl.Cost{Items: 1})
		},
	}
}
