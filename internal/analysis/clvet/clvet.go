// Package clvet is the repository's one static-analysis suite, run by
// cmd/clvet. It turns two social contracts into a compile gate.
//
// The simulated-OpenCL kernel contract of internal/cl (the paper's design
// leans on OpenCL 1.2 kernel restrictions — no dynamic allocation inside
// kernels, private scratch per work item, work items writing only their
// own output slot):
//
//   - kernelcapture: a kernel body must not mutate variables captured
//     from its enclosing scope; captured slices may only be written at
//     index wi.Global (disjoint output slots).
//   - kerneldeterminism: no wall clocks, randomness, map iteration,
//     channel operations or goroutines inside bodies or NewState; the
//     serial/parallel bit-identity tests depend on this.
//   - costcharge: a body whose (package-local) call graph never reaches
//     (*cl.WorkItem).Charge is a hole in the performance model.
//
// And whole-pipeline discipline — the invariants the reproduction's
// guarantees rest on but that no fixed-seed test reliably exercises:
//
//   - pipedeterminism: pipeline packages (core, cl, checkpoint, fastx,
//     trace, index, sam) must not read wall clocks, draw from the global
//     math/rand source, or let map iteration order reach outputs or
//     serialized state — the serial/parallel and kill-and-resume
//     bit-identity guarantees depend on it.
//   - lockguard: struct fields annotated "guarded by <mu>" may only be
//     accessed while the named mutex is held.
//   - errwrap: every error constructed in internal/cl must be a typed
//     *cl.Error / Code sentinel, or wrap one with %w — a bare
//     fmt.Errorf starves the fault-recovery classification
//     (IsTransient / IsAllocFailure / IsDeviceLost).
//   - tracedisc: every trace span Begin is Ended on all paths
//     (including error returns), and metric names at registry call
//     sites follow the conventions (snake_case segments, counters end
//     in _total).
//   - hotalloc: the one allocation rule. Kernel bodies and functions
//     annotated //repute:hotpath — and everything they transitively
//     call in the same package — must not allocate outside owned
//     scratch (a body's state parameter, a function's receiver and
//     parameters), use maps or call fmt; error-path constructions are
//     exempt.
//   - directive: the annotation grammar itself — unknown //repute:
//     verbs and the retired clvet/pipevet directive prefixes.
//
// Suppressions use //repute:allow <analyzer> -- <reason> on the
// offending line or the line above; the reason is mandatory
// (internal/analysis/directives.go). DESIGN.md §8 documents each
// analyzer's contract.
//
// Kernel bodies are found wherever they flow into the runtime: cl.Kernel
// composite literals, assignments to a Kernel's Body/NewState fields,
// and calls passing a func(*cl.WorkItem, any) argument (the kernel
// builder's launch helper). A body bound to a local variable first
// (body := func(...)...) is traced through the binding.
package clvet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzers returns the suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		KernelCapture,
		KernelDeterminism,
		CostCharge,
		PipeDeterminism,
		LockGuard,
		ErrWrap,
		TraceDisc,
		HotAlloc,
		Directive,
	}
}

// Directive checks the annotation grammar: a directive-shaped comment
// outside it would otherwise be ignored silently — a stale
// pipeline-package marker opting a package out of pipedeterminism, a
// misspelt allow suppressing nothing.
var Directive = &analysis.Analyzer{
	Name: "directive",
	Doc: "check that //repute: comments use a known verb (hotpath, allow, pipeline-package) " +
		"and that no directive with a retired clvet or pipevet prefix is left",
	Run: func(pass *analysis.Pass) error {
		for _, c := range analysis.NewDirectives(pass).Malformed() {
			pass.Reportf(c.Pos(), "unknown directive %q; the grammar is //repute:hotpath, "+
				"//repute:allow <analyzer> -- <reason> and //repute:pipeline-package", c.Text)
		}
		return nil
	},
}

// pipelineDirs are the internal packages under the determinism
// contract: everything between reading a record and writing a mapping,
// plus the state that round-trips through checkpoints and traces.
var pipelineDirs = map[string]bool{
	"core": true, "cl": true, "checkpoint": true, "fastx": true,
	"trace": true, "index": true, "sam": true,
}

// isPipelinePackage reports whether the pass's package is in
// pipedeterminism scope: one of the named internal packages, or any
// package carrying the //repute:pipeline-package marker.
func isPipelinePackage(pass *analysis.Pass, dirs *analysis.Directives) bool {
	path := pass.Pkg.Path()
	base := path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		base = path[i+1:]
	}
	if pipelineDirs[base] && strings.Contains(path, "internal/") {
		return true
	}
	return dirs.PipelinePackage()
}

// isTestFile reports whether the AST file is an in-package _test.go
// file. The pipeline analyzers check production discipline; tests may
// fake clocks, leave spans open around failure assertions and allocate
// freely, so they skip them.
func isTestFile(pass *analysis.Pass, f interface{ Pos() token.Pos }) bool {
	return strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go")
}

// kernelSite is one place a kernel is constructed: the syntax that binds
// a body (and possibly a NewState) to the cl runtime.
type kernelSite struct {
	// node is the construction site — composite literal, field
	// assignment or call — used for positions and allow comments.
	node ast.Node
	// body is the resolved body function literal; nil when the body
	// expression could not be traced to a literal in this package.
	body *ast.FuncLit
	// bodyExpr is the expression supplying the body at the site.
	bodyExpr ast.Expr
	// newState is the resolved NewState literal, when present.
	newState *ast.FuncLit
	// wi and state are the body's two parameter objects (nil for _).
	wi, state *types.Var
}

// isClPackage reports whether pkg is the simulated OpenCL runtime.
func isClPackage(pkg *types.Package) bool {
	return pkg != nil && (pkg.Path() == "repro/internal/cl" ||
		strings.HasSuffix(pkg.Path(), "/internal/cl"))
}

// isClNamed reports whether t is the named type name from internal/cl,
// unwrapping one level of pointer.
func isClNamed(t types.Type, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return n.Obj().Name() == name && isClPackage(n.Obj().Pkg())
}

// isBodyFuncType reports whether t is func(*cl.WorkItem, any).
func isBodyFuncType(t types.Type) bool {
	sig, ok := t.Underlying().(*types.Signature)
	if !ok || sig.Results().Len() != 0 || sig.Params().Len() != 2 || sig.Variadic() {
		return false
	}
	if !isClNamed(sig.Params().At(0).Type(), "WorkItem") {
		return false
	}
	iface, ok := sig.Params().At(1).Type().Underlying().(*types.Interface)
	return ok && iface.Empty()
}

// kernelSites finds every kernel construction in the package.
func kernelSites(pass *analysis.Pass) []kernelSite {
	var sites []kernelSite
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if t := pass.TypesInfo.TypeOf(n); t != nil && isClNamed(t, "Kernel") {
					sites = append(sites, siteFromLiteral(pass, n))
				}
			case *ast.AssignStmt:
				sites = append(sites, sitesFromAssign(pass, n)...)
			case *ast.CallExpr:
				if s, ok := siteFromCall(pass, n); ok {
					sites = append(sites, s)
				}
			}
			return true
		})
	}
	for i := range sites {
		resolveSite(pass, &sites[i])
	}
	return sites
}

// siteFromLiteral extracts Body/NewState from a cl.Kernel{...} literal.
func siteFromLiteral(pass *analysis.Pass, lit *ast.CompositeLit) kernelSite {
	s := kernelSite{node: lit}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		switch key.Name {
		case "Body":
			s.bodyExpr = kv.Value
		case "NewState":
			if fl := resolveFuncLit(pass, kv.Value); fl != nil {
				s.newState = fl
			}
		}
	}
	return s
}

// sitesFromAssign extracts k.Body = ... / k.NewState = ... assignments.
func sitesFromAssign(pass *analysis.Pass, as *ast.AssignStmt) []kernelSite {
	var sites []kernelSite
	for i, lhs := range as.Lhs {
		sel, ok := lhs.(*ast.SelectorExpr)
		if !ok || i >= len(as.Rhs) {
			continue
		}
		recv := pass.TypesInfo.TypeOf(sel.X)
		if recv == nil || !isClNamed(recv, "Kernel") {
			continue
		}
		switch sel.Sel.Name {
		case "Body":
			sites = append(sites, kernelSite{node: as, bodyExpr: as.Rhs[i]})
		case "NewState":
			s := kernelSite{node: as}
			if fl := resolveFuncLit(pass, as.Rhs[i]); fl != nil {
				s.newState = fl
				sites = append(sites, s)
			}
		}
	}
	return sites
}

// siteFromCall recognises helper calls that accept a kernel body — any
// parameter of type func(*cl.WorkItem, any).
func siteFromCall(pass *analysis.Pass, call *ast.CallExpr) (kernelSite, bool) {
	sig, ok := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok || sig.Variadic() {
		return kernelSite{}, false
	}
	for i := 0; i < sig.Params().Len() && i < len(call.Args); i++ {
		if isBodyFuncType(sig.Params().At(i).Type()) {
			return kernelSite{node: call, bodyExpr: call.Args[i]}, true
		}
	}
	return kernelSite{}, false
}

// resolveSite traces the body expression to its literal and records the
// parameter objects.
func resolveSite(pass *analysis.Pass, s *kernelSite) {
	if s.bodyExpr == nil {
		return
	}
	s.body = resolveFuncLit(pass, s.bodyExpr)
	if s.body == nil {
		return
	}
	params := s.body.Type.Params.List
	var names []*ast.Ident
	for _, field := range params {
		names = append(names, field.Names...)
	}
	if len(names) == 2 {
		if v, ok := pass.TypesInfo.Defs[names[0]].(*types.Var); ok {
			s.wi = v
		}
		if v, ok := pass.TypesInfo.Defs[names[1]].(*types.Var); ok {
			s.state = v
		}
	}
}

// resolveFuncLit unwraps expr to a function literal, following one
// level of local-variable indirection (body := func(...){...}; use of
// body later), which is how every mapper builds its kernel.
func resolveFuncLit(pass *analysis.Pass, expr ast.Expr) *ast.FuncLit {
	switch e := ast.Unparen(expr).(type) {
	case *ast.FuncLit:
		return e
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[e]
		if obj == nil {
			return nil
		}
		return funcLitBoundTo(pass, obj)
	}
	return nil
}

// funcLitBoundTo finds a function literal assigned to obj anywhere in
// the package syntax.
func funcLitBoundTo(pass *analysis.Pass, obj types.Object) *ast.FuncLit {
	var found *ast.FuncLit
	for _, f := range pass.Files {
		if found != nil {
			break
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if found != nil {
				return false
			}
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || i >= len(n.Rhs) {
						continue
					}
					def := pass.TypesInfo.Defs[id]
					use := pass.TypesInfo.Uses[id]
					if def != obj && use != obj {
						continue
					}
					if fl, ok := ast.Unparen(n.Rhs[i]).(*ast.FuncLit); ok {
						found = fl
						return false
					}
				}
			case *ast.ValueSpec:
				for i, id := range n.Names {
					if pass.TypesInfo.Defs[id] != obj || i >= len(n.Values) {
						continue
					}
					if fl, ok := ast.Unparen(n.Values[i]).(*ast.FuncLit); ok {
						found = fl
						return false
					}
				}
			}
			return true
		})
	}
	return found
}

// declaredWithin reports whether obj is declared inside the node's
// source range — the locality test separating a body's own variables
// (and parameters) from captured ones.
func declaredWithin(obj types.Object, n ast.Node) bool {
	return obj.Pos() != token.NoPos && n.Pos() <= obj.Pos() && obj.Pos() < n.End()
}
