package clvet

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// CostCharge closes the performance-model loophole: a kernel body that
// never reaches (*cl.WorkItem).Charge does real work that the simulated
// clock never sees, silently skewing every cross-device comparison the
// reproduction exists to make. The reachability search covers the body
// literal and every same-package function or method it calls
// (transitively); a genuinely cost-free kernel carries a justified
// //repute:allow costcharge on its construction site or body literal.
var CostCharge = &analysis.Analyzer{
	Name: "costcharge",
	Doc:  "check that every kernel body charges simulated cost via (*cl.WorkItem).Charge",
	Run:  runCostCharge,
}

func runCostCharge(pass *analysis.Pass) error {
	dirs := analysis.NewDirectives(pass)
	decls := analysis.FuncDecls(pass)
	for _, site := range kernelSites(pass) {
		if site.body == nil || dirs.Allowed("costcharge", site.node.Pos()) ||
			dirs.Allowed("costcharge", site.body.Pos()) {
			continue
		}
		if !reachesCharge(pass, site.body.Body, decls, map[*types.Func]bool{}) {
			pass.Reportf(site.body.Pos(),
				"kernel body never reaches (*cl.WorkItem).Charge: its work is invisible "+
					"to the cost model; charge the operations performed or annotate the "+
					"kernel //repute:allow costcharge -- <reason>")
		}
	}
	dirs.ReportUnjustified(pass, "costcharge")
	return nil
}

// reachesCharge walks one function body looking for a Charge call,
// descending into same-package callees.
func reachesCharge(pass *analysis.Pass, body ast.Node,
	decls map[*types.Func]*ast.FuncDecl, visited map[*types.Func]bool) bool {

	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isChargeCall(pass, call) {
			found = true
			return false
		}
		// Delegation to another kernel body (a func(*cl.WorkItem, any)
		// value, as trace-instrumentation wrappers do) counts as reaching
		// Charge: the delegate is itself a kernel site, vetted — including
		// for this check — wherever it is constructed.
		if t := pass.TypesInfo.TypeOf(call.Fun); t != nil && isBodyFuncType(t) {
			found = true
			return false
		}
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() != pass.Pkg || visited[fn] {
			return true
		}
		visited[fn] = true
		if decl := decls[fn]; decl != nil && decl.Body != nil {
			if reachesCharge(pass, decl.Body, decls, visited) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isChargeCall reports whether call invokes the Charge method of the
// simulated runtime's WorkItem.
func isChargeCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Charge" {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && isClNamed(recv.Type(), "WorkItem") && isClPackage(fn.Pkg())
}
