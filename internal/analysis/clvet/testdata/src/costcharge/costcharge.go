// Testdata for the costcharge analyzer: every kernel body must reach
// (*cl.WorkItem).Charge — directly or through same-package helpers — or
// carry a justified //repute:allow costcharge; otherwise its work is
// invisible to the simulated clock.
package costcharge

import "repro/internal/cl"

// chargeHelper charges on the kernel's behalf one call away.
func chargeHelper(wi *cl.WorkItem, n int) {
	wi.Charge(cl.Cost{DPCells: int64(n)})
}

// deepHelper reaches Charge two hops down the package call graph.
func deepHelper(wi *cl.WorkItem) {
	chargeHelper(wi, 2)
}

// direct charges inline: ok.
func direct(out []int) *cl.Kernel {
	return &cl.Kernel{
		Name: "direct",
		Body: func(wi *cl.WorkItem, _ any) {
			out[wi.Global] = 1
			wi.Charge(cl.Cost{Items: 1})
		},
	}
}

// transitive charges through the package call graph: ok.
func transitive(out []int) *cl.Kernel {
	return &cl.Kernel{
		Name: "transitive",
		Body: func(wi *cl.WorkItem, _ any) {
			out[wi.Global] = 2
			deepHelper(wi)
		},
	}
}

// optout declares itself cost-free: ok because of the annotation.
func optout(out []int) *cl.Kernel {
	//repute:allow costcharge -- marks a slot, does no work worth modelling
	return &cl.Kernel{
		Name: "optout",
		Body: func(wi *cl.WorkItem, _ any) {
			out[wi.Global] = 3
		},
	}
}

// missing does real work the cost model never sees: flagged.
func missing(out []int) *cl.Kernel {
	return &cl.Kernel{
		Name: "missing",
		Body: func(wi *cl.WorkItem, _ any) { // want `never reaches \(\*cl\.WorkItem\)\.Charge`
			out[wi.Global] = 4
		},
	}
}

// wrap mimics core.instrumentKernel: the wrapper body delegates every
// work item to the inner, already-vetted kernel body and only observes
// afterwards. Delegation to a body-typed value counts as reaching
// Charge, so the wrapper is ok.
func wrap(k *cl.Kernel, observe func(int64)) *cl.Kernel {
	inner := k.Body
	out := *k
	out.Body = func(wi *cl.WorkItem, state any) {
		inner(wi, state)
		observe(wi.Cost().Items)
	}
	return &out
}

// enqueue mimics a kernel-builder helper that takes the body as an argument.
func enqueue(n int, newState func() any, body func(*cl.WorkItem, any)) {
	_ = n
	_ = newState
	_ = body
}

// viaCall hands an uncharging body to a runner through a local binding:
// still flagged.
func viaCall(out []int) {
	body := func(wi *cl.WorkItem, _ any) { // want `never reaches \(\*cl\.WorkItem\)\.Charge`
		out[wi.Global] = 5
	}
	enqueue(len(out), nil, body)
}
