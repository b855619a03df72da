// Testdata for the kernelcapture analyzer: kernel bodies may read what
// they capture and write captured slices only at wi.Global; every other
// mutation of enclosing state must go through cl.Kernel.NewState.
package kernelcapture

import "repro/internal/cl"

type state struct {
	scratch []int
}

// good follows the contract: shared inputs are read, mutable scratch
// lives in the kernel state, and the only captured write is the work
// item's own output slot (including writes deeper inside that slot).
func good(reads [][]byte, out [][]int) *cl.Kernel {
	return &cl.Kernel{
		Name:     "good",
		NewState: func() any { return &state{} },
		Body: func(wi *cl.WorkItem, s any) {
			st := s.(*state)
			st.scratch = st.scratch[:0]
			local := len(reads[wi.Global])
			local++
			out[wi.Global] = st.scratch[:0]
			out[wi.Global] = append(out[wi.Global][:0], local)
			out[wi.Global][0] = local
			wi.Charge(cl.Cost{Items: 1})
		},
	}
}

// bad mutates captured variables: a shared counter, a foreign output
// slot, and a captured scratch slice grown in place.
func bad(out []int, shared []int) *cl.Kernel {
	total := 0
	return &cl.Kernel{
		Name: "bad",
		Body: func(wi *cl.WorkItem, _ any) {
			total++             // want `kernel body writes captured variable total`
			out[0] = total      // want `writes captured out at an index other than wi\.Global`
			shared = shared[:0] // want `kernel body writes captured variable shared`
			out[wi.Global] = total
			wi.Charge(cl.Cost{Items: 1})
		},
	}
}

// escape leaks the address of a captured variable into a callee, where
// the analyzer can no longer see the mutation.
func escape(out []int) *cl.Kernel {
	var hidden cl.Cost
	return &cl.Kernel{
		Name: "escape",
		Body: func(wi *cl.WorkItem, _ any) {
			bump(&hidden) // want `takes the address of captured variable hidden`
			out[wi.Global] = int(hidden.Items)
			wi.Charge(cl.Cost{Items: 1})
		},
	}
}

func bump(c *cl.Cost) { c.Items++ }

// assigned binds the body through a Kernel field assignment rather than
// a composite literal; the analyzer must still find it.
func assigned(out []int) *cl.Kernel {
	var k cl.Kernel
	total := 0
	k.Body = func(wi *cl.WorkItem, _ any) {
		total += wi.Global // want `kernel body writes captured variable total`
		out[wi.Global] = total
		wi.Charge(cl.Cost{Items: 1})
	}
	return &k
}

// enqueue mimics a kernel-builder helper: any parameter of the kernel body
// type marks its argument as a kernel body.
func enqueue(n int, newState func() any, body func(*cl.WorkItem, any)) {
	_ = n
	_ = newState
	_ = body
}

// viaCall binds the body to a local first and hands it to a runner; the
// analyzer traces the binding.
func viaCall(out []int) {
	sum := 0
	body := func(wi *cl.WorkItem, _ any) {
		sum += wi.Global // want `kernel body writes captured variable sum`
		out[wi.Global] = sum
		wi.Charge(cl.Cost{Items: 1})
	}
	enqueue(len(out), nil, body)
}
