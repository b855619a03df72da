package analysis

// A package-local call graph built from source: nodes are this
// package's declared functions and methods, edges are direct calls
// resolved through the type checker. Calls into other packages are not
// followed — interprocedural checks that need a property to hold across
// a package boundary annotate the callee in its own package (hotalloc
// documents exactly this contract). Calls through function values and
// interface methods resolve to nil and contribute no edge; analyzers
// that care about indirect flow handle it at the call site.

import (
	"go/ast"
	"go/types"
)

// CallGraph is the package-local static call graph of one pass.
type CallGraph struct {
	pass    *Pass
	decls   map[*types.Func]*ast.FuncDecl
	callees map[*types.Func][]*types.Func
}

// NewCallGraph builds the call graph for the pass's package. Calls made
// inside function literals are attributed to the enclosing declaration,
// matching how the work is actually reached at run time.
func NewCallGraph(pass *Pass) *CallGraph {
	g := &CallGraph{
		pass:    pass,
		decls:   funcDecls(pass),
		callees: map[*types.Func][]*types.Func{},
	}
	for fn, fd := range g.decls {
		if fd.Body != nil {
			g.callees[fn] = g.calleesIn(fd.Body)
		}
	}
	return g
}

// calleesIn returns the distinct same-package functions called directly
// inside n.
func (g *CallGraph) calleesIn(n ast.Node) []*types.Func {
	var out []*types.Func
	seen := map[*types.Func]bool{}
	ast.Inspect(n, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := CalleeFunc(g.pass.TypesInfo, call)
		if callee == nil || callee.Pkg() != g.pass.Pkg || seen[callee] {
			return true
		}
		seen[callee] = true
		out = append(out, callee)
		return true
	})
	return out
}

// Decls returns the function-object → declaration map.
func (g *CallGraph) Decls() map[*types.Func]*ast.FuncDecl { return g.decls }

// DeclOf returns fn's declaration, or nil when fn is not declared in
// this package.
func (g *CallGraph) DeclOf(fn *types.Func) *ast.FuncDecl { return g.decls[fn] }

// Reachable returns the transitive same-package closure of roots,
// including the roots themselves.
func (g *CallGraph) Reachable(roots ...*types.Func) map[*types.Func]bool {
	reached := map[*types.Func]bool{}
	work := append([]*types.Func(nil), roots...)
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		if fn == nil || reached[fn] {
			continue
		}
		reached[fn] = true
		work = append(work, g.callees[fn]...)
	}
	return reached
}
