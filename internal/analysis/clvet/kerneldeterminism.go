package clvet

import (
	"go/ast"

	"repro/internal/analysis"
)

// KernelDeterminism keeps kernel bodies and NewState constructors
// schedule-independent: the serial/parallel bit-identity tests (and the
// whole simulated cost model) require that a kernel's behaviour depend
// only on its inputs and wi.Global — never on wall clocks, randomness,
// map iteration order, channel scheduling or extra goroutines.
var KernelDeterminism = &analysis.Analyzer{
	Name: "kerneldeterminism",
	Doc: "check that kernel bodies and NewState are deterministic: no time.Now, " +
		"math/rand, map iteration, channel ops or go statements",
	Run: runKernelDeterminism,
}

// timeDenylist names the package-level time functions that leak the host
// clock or host scheduling into a kernel or, for pipedeterminism, into
// pipeline state. (time.After/Tick also create channels, doubly banned
// in kernels.)
var timeDenylist = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

func runKernelDeterminism(pass *analysis.Pass) error {
	for _, site := range kernelSites(pass) {
		if site.body != nil {
			checkDeterminism(pass, site.body, "body")
		}
		if site.newState != nil {
			checkDeterminism(pass, site.newState, "NewState")
		}
	}
	return nil
}

func checkDeterminism(pass *analysis.Pass, fn *ast.FuncLit, what string) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(n.Pos(),
				"kernel %s starts a goroutine; work items are the only parallelism a kernel has", what)
		case *ast.SendStmt:
			pass.Reportf(n.Pos(),
				"kernel %s sends on a channel; kernels must not synchronise with the host", what)
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				pass.Reportf(n.Pos(),
					"kernel %s receives from a channel; kernels must not synchronise with the host", what)
			}
		case *ast.SelectStmt:
			pass.Reportf(n.Pos(),
				"kernel %s uses select; kernels must not synchronise with the host", what)
		case *ast.RangeStmt:
			if analysis.IsMapType(pass.TypesInfo, n.X) {
				pass.Reportf(n.Pos(),
					"kernel %s iterates a map; iteration order is nondeterministic across runs", what)
			}
		case *ast.CallExpr:
			checkDeterminismCall(pass, n, what)
		}
		return true
	})
}

func checkDeterminismCall(pass *analysis.Pass, call *ast.CallExpr, what string) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "math/rand", "math/rand/v2":
		pass.Reportf(call.Pos(),
			"kernel %s calls %s.%s; kernels must be deterministic — derive any "+
				"pseudo-randomness from wi.Global", what, fn.Pkg().Name(), fn.Name())
	case "time":
		if timeDenylist[fn.Name()] {
			pass.Reportf(call.Pos(),
				"kernel %s calls time.%s; simulated time comes from the cost model, "+
					"not the host clock", what, fn.Name())
		}
	}
}
