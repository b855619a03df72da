// Testdata for the hotalloc analyzer against pre-alignment filter
// kernels: the filter's bit masks, window registers and survivor lists
// are amortised kernel-state scratch; a kernel that builds them fresh
// per work item allocates on-device, which OpenCL 1.2 forbids.
package prefilteralloc

import "repro/internal/cl"

type filterState struct {
	peq  []uint64
	acc  []uint64
	win  []byte
	keep []int
}

// good reuses state-owned masks and window scratch, growing them only
// when a longer read arrives — the amortised idiom of the real kernel.
func good(reads [][]byte, candOut [][]int) *cl.Kernel {
	return &cl.Kernel{
		Name:     "good-prefilter",
		NewState: func() any { return &filterState{} },
		Body: func(wi *cl.WorkItem, s any) {
			st := s.(*filterState)
			words := (len(reads[wi.Global]) + 63) / 64
			if cap(st.peq) < words {
				st.peq = make([]uint64, words)
				st.acc = make([]uint64, words)
			}
			st.peq = st.peq[:words]
			st.acc = st.acc[:words]
			st.win = append(st.win[:0], reads[wi.Global]...)
			st.keep = st.keep[:0]
			candOut[wi.Global] = candOut[wi.Global][:0]
			wi.Charge(cl.Cost{Items: 1, FilterWords: int64(words)})
		},
	}
}

// bad rebuilds every mask and the survivor list per work item.
func bad(reads [][]byte, candOut [][]int) *cl.Kernel {
	return &cl.Kernel{
		Name: "bad-prefilter",
		Body: func(wi *cl.WorkItem, _ any) {
			words := (len(reads[wi.Global]) + 63) / 64
			peq := make([]uint64, words) // want `allocates with make outside caller-owned scratch`
			acc := make([]uint64, words) // want `allocates with make outside caller-owned scratch`
			var keep []int
			keep = append(keep, wi.Global) // want `appends outside caller-owned scratch`
			seen := map[int]bool{}         // want `allocates a map literal`
			_ = seen
			_ = peq
			_ = acc
			candOut[wi.Global] = keep
			wi.Charge(cl.Cost{Items: 1, FilterWords: int64(words)})
		},
	}
}
