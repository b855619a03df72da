package analysis

// Shared AST/type utilities of the analyzers. They are deliberately tiny
// and positional — the framework has no Fact or Inspector machinery, so
// analyzers lean on parent stacks and direct type lookups instead.

import (
	"go/ast"
	"go/types"
)

// WalkParents traverses root, handing each visited node its ancestor
// stack (nearest last) — the parent context the stdlib Inspect lacks.
func WalkParents(root ast.Node, visit func(n ast.Node, parents []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		visit(n, stack)
		stack = append(stack, n)
		return true
	})
}

// CalleeFunc resolves a call's target to a declared function or method;
// nil for builtins, function-typed variables and conversion calls.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// IsMapType reports whether expr has a map type.
func IsMapType(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// funcDecls maps this package's function and method objects to their
// declarations — the node set a package-local call graph walks.
func funcDecls(pass *Pass) map[*types.Func]*ast.FuncDecl {
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}
	return decls
}

// BaseIdent unwraps an expression to the identifier at the root of its
// access chain: parentheses, selectors, indexing, slicing, dereference
// and address-of are stripped. nil when the chain is not ident-rooted
// (a call result, a literal, ...).
func BaseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// ObjectOf resolves an identifier to its object, checking uses first and
// definitions second (short variable declarations define on first use).
func ObjectOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}
