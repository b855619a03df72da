package clvet

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// HotAlloc is the one allocation rule. Its roots are the functions
// annotated //repute:hotpath: the per-item and per-record loops, where
// GC pressure compounds at service QPS, and the mapping kernel's
// per-read work item — OpenCL 1.2 kernels cannot allocate at all;
// outputs live in fixed slots prepared by the host. A root and
// everything it transitively calls in the same package (its stage
// functions and candidate generator included) must not allocate outside
// owned scratch.
//
// Owned scratch is storage rooted at the receiver or a parameter
// (vs.window = make(...), s.buf = append(s.buf, chunk...)), including
// locals aliased from them (dedup := ms[:1]; dedup = append(dedup, m)
// compacts in place within the caller's capacity; st :=
// state.(*kernelState)). Everything else is flagged:
//
//   - make / new / append into locals or discarded
//   - maps entirely — literals, make, writes, delete, clear — and
//     channels: kernels have neither
//   - &T{} pointer literals (value composites are assumed
//     stack-allocated and left to escape analysis)
//   - fmt calls, which allocate and reflect on every invocation
//   - sort.Slice / sort.SliceStable / sort.Sort / sort.Stable, which box
//     their arguments per call — slices.SortFunc sorts without boxing
//   - closures created inside loops (one allocation per iteration)
//   - taking the address of a loop-local variable as a call argument,
//     the classic per-item escape (hoist the variable out of the loop)
//
// Error construction is exempt everywhere: expressions whose type —
// or whose enclosing composite's type — implements error are failure
// paths, and failure paths are not hot. Amortised allocations that are
// genuinely per-batch, not per-item, carry a justified //repute:allow
// hotalloc; the runtime half of the contract is the AllocsPerRun tests
// over the enqueue path and over each mapper's generator.
//
// The closure is package-local: a hot function calling into another
// package — or through a function value, as the kernel builder calls a
// mapper's per-read function — is trusted at the boundary; annotate the
// callee where it is declared to extend coverage.
var HotAlloc = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "check that //repute:hotpath functions and their same-package callees do not " +
		"allocate outside owned scratch, use maps or call fmt",
	Run: runHotAlloc,
}

func runHotAlloc(pass *analysis.Pass) error {
	dirs := analysis.NewDirectives(pass)
	cg := analysis.NewCallGraph(pass)
	var roots []*types.Func
	for fn, fd := range cg.Decls() {
		if analysis.HotpathRoot(fd) {
			roots = append(roots, fn)
		}
	}
	for fn := range cg.Reachable(roots...) {
		fd := cg.DeclOf(fn)
		if fd == nil || fd.Body == nil {
			continue
		}
		checkHotFunc(pass, dirs, fd)
	}
	dirs.ReportUnjustified(pass, "hotalloc")
	return nil
}

// checkHotFunc checks one function declaration, whose owned scratch is
// rooted at its receiver and parameters.
func checkHotFunc(pass *analysis.Pass, dirs *analysis.Directives, fd *ast.FuncDecl) {
	owned := ownedObjects(pass, fd)

	// ownedTarget reports whether an assignment target is rooted at the
	// receiver, a parameter, or an alias of one.
	ownedTarget := func(e ast.Expr) bool {
		id := analysis.BaseIdent(ast.Unparen(e))
		if id == nil {
			return false
		}
		obj := analysis.ObjectOf(pass.TypesInfo, id)
		return obj != nil && owned[obj]
	}

	// ownedAssigned reports whether the expression is the right-hand
	// side of an assignment into owned storage.
	ownedAssigned := func(n ast.Node, parents []ast.Node) bool {
		if len(parents) == 0 {
			return false
		}
		as, ok := parents[len(parents)-1].(*ast.AssignStmt)
		if !ok {
			return false
		}
		for i, rhs := range as.Rhs {
			if ast.Unparen(rhs) == n && i < len(as.Lhs) {
				return ownedTarget(as.Lhs[i])
			}
		}
		return false
	}

	report := func(pos interface{ Pos() token.Pos }, format string, args ...any) {
		if !dirs.Allowed("hotalloc", pos.Pos()) {
			pass.Reportf(pos.Pos(), format, args...)
		}
	}
	mapWrite := func(pos ast.Node, target ast.Expr) {
		if ix, ok := ast.Unparen(target).(*ast.IndexExpr); ok && analysis.IsMapType(pass.TypesInfo, ix.X) {
			report(pos, mapWriteMsg)
		}
	}

	analysis.WalkParents(fd.Body, func(n ast.Node, parents []ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				mapWrite(n, lhs)
			}
		case *ast.IncDecStmt:
			mapWrite(n, n.X)
		case *ast.CallExpr:
			checkHotCall(pass, n, parents, ownedTarget, ownedAssigned, report)
		case *ast.CompositeLit:
			if analysis.IsMapType(pass.TypesInfo, n) && !inErrorConstruction(pass, n, parents) {
				report(n, "hot path allocates a map literal; use caller-owned scratch")
			}
		case *ast.UnaryExpr:
			checkHotUnary(pass, n, parents, ownedAssigned, report)
		case *ast.FuncLit:
			if loopDepth(parents) > 0 {
				report(n, "hot path allocates a closure per loop iteration; hoist the "+
					"function value out of the loop")
			}
		}
	})
}

const mapWriteMsg = "hot path writes a map; kernels have no maps — use fixed slots or owned slices"

type reportFunc func(pos interface{ Pos() token.Pos }, format string, args ...any)

func checkHotCall(pass *analysis.Pass, call *ast.CallExpr, parents []ast.Node,
	ownedTarget func(ast.Expr) bool, ownedAssigned func(ast.Node, []ast.Node) bool,
	report reportFunc) {

	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new":
				switch pass.TypesInfo.TypeOf(call).Underlying().(type) {
				case *types.Map:
					report(call, "hot path allocates a map; kernels have no maps")
					return
				case *types.Chan:
					report(call, "hot path allocates a channel; kernels cannot synchronise")
					return
				}
				if !ownedAssigned(call, parents) && !inErrorConstruction(pass, call, parents) {
					report(call, "hot path allocates with %s outside caller-owned scratch; "+
						"reuse a receiver- or parameter-owned buffer", b.Name())
				}
			case "append":
				// append grows its first argument's backing array; the
				// allocation is owned when that argument is (the
				// strconv.AppendInt shape: return append(dst, ...)).
				if len(call.Args) > 0 && !ownedTarget(call.Args[0]) &&
					!inErrorConstruction(pass, call, parents) {
					report(call, "hot path appends outside caller-owned scratch; grow a "+
						"receiver- or parameter-owned slice instead")
				}
			case "delete":
				report(call, mapWriteMsg)
			case "clear":
				if len(call.Args) == 1 && analysis.IsMapType(pass.TypesInfo, call.Args[0]) {
					report(call, mapWriteMsg)
				}
			}
			return
		}
	}

	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "fmt":
		if !inErrorConstruction(pass, call, parents) {
			report(call, "hot path calls fmt.%s, which allocates on every call; "+
				"format off the hot path", fn.Name())
		}
	case "sort":
		switch fn.Name() {
		case "Slice", "SliceStable", "Sort", "Stable":
			report(call, "sort.%s boxes its argument and allocates per call on a hot "+
				"path; use slices.SortFunc", fn.Name())
		}
	}
}

func checkHotUnary(pass *analysis.Pass, n *ast.UnaryExpr, parents []ast.Node,
	ownedAssigned func(ast.Node, []ast.Node) bool, report reportFunc) {

	if n.Op.String() != "&" {
		return
	}
	switch x := ast.Unparen(n.X).(type) {
	case *ast.CompositeLit:
		if !inErrorConstruction(pass, n, parents) && !ownedAssigned(n, parents) {
			report(n, "hot path allocates a pointer composite literal; reuse "+
				"caller-owned storage")
		}
	case *ast.Ident:
		// &loopLocal passed as a call argument: the address escapes
		// through the call, so the compiler heap-allocates a fresh
		// variable every iteration.
		if len(parents) == 0 {
			return
		}
		if _, ok := parents[len(parents)-1].(*ast.CallExpr); !ok {
			return
		}
		obj := analysis.ObjectOf(pass.TypesInfo, x)
		if obj == nil {
			return
		}
		if loop := innermostLoop(parents); loop != nil &&
			loop.Pos() <= obj.Pos() && obj.Pos() < loop.End() {
			report(n, "address of loop-local %s escapes through this call, "+
				"heap-allocating per iteration; declare it before the loop", x.Name)
		}
	}
}

// ownedObjects seeds the owned set with the receiver and parameters,
// then adds locals aliased from them through ident-rooted expressions
// (slices, type assertions, field chains) in a source-order pass.
func ownedObjects(pass *analysis.Pass, fd *ast.FuncDecl) map[types.Object]bool {
	owned := map[types.Object]bool{}
	for _, fields := range []*ast.FieldList{fd.Recv, fd.Type.Params} {
		if fields == nil {
			continue
		}
		for _, f := range fields.List {
			for _, name := range f.Names {
				if obj := pass.TypesInfo.Defs[name]; obj != nil {
					owned[obj] = true
				}
			}
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if i >= len(as.Lhs) {
				break
			}
			lhs, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
			if !ok {
				continue
			}
			src := analysis.BaseIdent(ast.Unparen(rhs))
			if src == nil {
				continue
			}
			srcObj := analysis.ObjectOf(pass.TypesInfo, src)
			if srcObj == nil || !owned[srcObj] {
				continue
			}
			if obj := analysis.ObjectOf(pass.TypesInfo, lhs); obj != nil {
				owned[obj] = true
			}
		}
		return true
	})
	return owned
}

// inErrorConstruction reports whether the node builds (part of) an
// error value: its own type implements error, or an enclosing
// expression's does. Failure paths allocate; they are not hot.
func inErrorConstruction(pass *analysis.Pass, n ast.Node, parents []ast.Node) bool {
	if e, ok := n.(ast.Expr); ok && typeIsError(pass.TypesInfo.TypeOf(e)) {
		return true
	}
	for i := len(parents) - 1; i >= 0; i-- {
		switch p := parents[i].(type) {
		case *ast.KeyValueExpr, *ast.ParenExpr:
			continue
		case ast.Expr:
			if typeIsError(pass.TypesInfo.TypeOf(p)) {
				return true
			}
		default:
			return false
		}
	}
	return false
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// typeIsError reports whether t (or *t) implements error.
func typeIsError(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorIface) || types.Implements(types.NewPointer(t), errorIface)
}

// loopDepth counts loop statements between the node and its nearest
// enclosing function node — a closure resets the count, because the
// allocation happens per invocation of the closure, not per iteration
// of a loop outside it.
func loopDepth(parents []ast.Node) int {
	depth := 0
	for i := len(parents) - 1; i >= 0; i-- {
		switch parents[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			depth++
		case *ast.FuncLit, *ast.FuncDecl:
			return depth
		}
	}
	return depth
}

// innermostLoop returns the nearest enclosing loop within the same
// function scope, or nil.
func innermostLoop(parents []ast.Node) ast.Node {
	for i := len(parents) - 1; i >= 0; i-- {
		switch parents[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return parents[i]
		case *ast.FuncLit, *ast.FuncDecl:
			return nil
		}
	}
	return nil
}
