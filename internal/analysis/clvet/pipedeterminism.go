package clvet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// PipeDeterminism enforces the pipeline-wide determinism contract: the
// guarantees the reproduction is built on — serial and parallel runs
// bit-identical in simulated time/energy, kill-and-resume byte-identical
// in output — hold only while nothing between a record and its mapping
// depends on wall clocks, ambient randomness or map iteration order.
//
// Three sources of nondeterminism are flagged in pipeline packages
// (non-test files of core, cl, checkpoint, fastx, trace, index, sam, or
// any package marked //repute:pipeline-package):
//
//   - wall-clock calls (time.Now, Since, Until, Sleep, After, Tick,
//     NewTimer, NewTicker, AfterFunc): simulated time comes from the cost model;
//     code that genuinely needs the host clock takes an injected clock
//     and the call site carries a justified //repute:allow.
//   - global math/rand (package-level functions of math/rand and
//     math/rand/v2): randomness must come from a seeded *rand.Rand
//     threaded through the pipeline (fastx.Codec is the model).
//   - map ranges whose body feeds an output: appending to a slice
//     declared outside the range (unless the slice is sorted later in
//     the same function), writing/printing/encoding inside the body,
//     sending on a channel, or compound-assigning floats to a target
//     not indexed by the range key (float addition is order-sensitive;
//     integer tallies and per-key writes are order-free and exempt).
var PipeDeterminism = &analysis.Analyzer{
	Name: "pipedeterminism",
	Doc: "check that pipeline packages avoid wall clocks, global math/rand and " +
		"map-iteration order reaching outputs or serialized state",
	Run: runPipeDeterminism,
}

func runPipeDeterminism(pass *analysis.Pass) error {
	dirs := analysis.NewDirectives(pass)
	if !isPipelinePackage(pass, dirs) {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		analysis.WalkParents(f, func(n ast.Node, parents []ast.Node) {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkNondetCall(pass, dirs, n)
			case *ast.RangeStmt:
				if analysis.IsMapType(pass.TypesInfo, n.X) {
					checkMapRange(pass, dirs, n, parents)
				}
			}
		})
	}
	dirs.ReportUnjustified(pass, "pipedeterminism")
	return nil
}

func checkNondetCall(pass *analysis.Pass, dirs *analysis.Directives, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	switch fn.Pkg().Path() {
	case "time":
		if timeDenylist[fn.Name()] && (sig == nil || sig.Recv() == nil) {
			if !dirs.Allowed("pipedeterminism", call.Pos()) {
				pass.Reportf(call.Pos(),
					"wall-clock call time.%s in a pipeline package: simulated time comes "+
						"from the cost model; inject a clock (and //repute:allow the site) "+
						"if host time is genuinely needed", fn.Name())
			}
		}
	case "math/rand", "math/rand/v2":
		// Methods on an explicitly seeded *rand.Rand are deterministic,
		// and so are the constructors (New, NewSource, NewPCG, ...) that
		// build one; only the remaining package-level functions share
		// ambient global state.
		if sig != nil && sig.Recv() == nil && !strings.HasPrefix(fn.Name(), "New") {
			if !dirs.Allowed("pipedeterminism", call.Pos()) {
				pass.Reportf(call.Pos(),
					"global math/rand call rand.%s in a pipeline package: draw from a "+
						"seeded *rand.Rand threaded through the pipeline instead "+
						"(fastx.Codec is the model)", fn.Name())
			}
		}
	}
}

// checkMapRange flags map-range bodies that let iteration order reach
// an output or serialized state.
func checkMapRange(pass *analysis.Pass, dirs *analysis.Directives,
	rng *ast.RangeStmt, parents []ast.Node) {

	if dirs.Allowed("pipedeterminism", rng.Pos()) {
		return
	}
	keyObj := rangeKeyObj(pass, rng)
	encFunc := enclosingFunc(parents)

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkMapRangeAssign(pass, dirs, rng, encFunc, keyObj, n)
		case *ast.SendStmt:
			report(pass, dirs, n.Pos(),
				"map iteration order reaches a channel send; iterate sorted keys instead")
		case *ast.CallExpr:
			if fn := analysis.CalleeFunc(pass.TypesInfo, n); fn != nil && isWriterCall(fn.Name()) {
				report(pass, dirs, n.Pos(),
					"map iteration order reaches an output (%s call inside a map range); "+
						"iterate sorted keys instead", fn.Name())
			}
		}
		return true
	})
}

func checkMapRangeAssign(pass *analysis.Pass, dirs *analysis.Directives,
	rng *ast.RangeStmt, encFunc ast.Node, keyObj types.Object, as *ast.AssignStmt) {

	// x = append(x, ...) growing a slice declared outside the range: the
	// element order is the map's iteration order. Exempt when the slice
	// is sorted later in the same function (the collect-then-sort idiom).
	for i, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || i >= len(as.Lhs) {
			continue
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
				target, _ := ast.Unparen(as.Lhs[i]).(*ast.Ident)
				if target == nil {
					report(pass, dirs, as.Pos(),
						"map iteration order determines append order into shared state; "+
							"iterate sorted keys instead")
					continue
				}
				obj := analysis.ObjectOf(pass.TypesInfo, target)
				if obj == nil || declaredWithin(obj, rng) {
					continue
				}
				if sortedAfter(pass, encFunc, rng, obj) {
					continue
				}
				report(pass, dirs, as.Pos(),
					"map iteration order determines the element order of %s; sort it "+
						"afterwards or iterate sorted keys", target.Name)
			}
		}
	}

	// Float compound assignment accumulates in iteration order; float
	// addition is not associative, so the sum depends on the schedule.
	// Per-key writes (m[k] += v with k the range key) touch disjoint
	// slots and are exempt.
	if as.Tok == token.ADD_ASSIGN || as.Tok == token.SUB_ASSIGN ||
		as.Tok == token.MUL_ASSIGN || as.Tok == token.QUO_ASSIGN {
		for _, lhs := range as.Lhs {
			t := pass.TypesInfo.TypeOf(lhs)
			if t == nil || !isFloat(t) {
				continue
			}
			if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && keyObj != nil {
				if id, ok := ast.Unparen(ix.Index).(*ast.Ident); ok &&
					analysis.ObjectOf(pass.TypesInfo, id) == keyObj {
					continue
				}
			}
			report(pass, dirs, as.Pos(),
				"float accumulation in map-iteration order is order-sensitive; "+
					"accumulate over sorted keys or per key")
		}
	}
}

func report(pass *analysis.Pass, dirs *analysis.Directives,
	pos token.Pos, format string, args ...any) {
	if !dirs.Allowed("pipedeterminism", pos) {
		pass.Reportf(pos, format, args...)
	}
}

// rangeKeyObj returns the object of the range statement's key ident.
func rangeKeyObj(pass *analysis.Pass, rng *ast.RangeStmt) types.Object {
	id, ok := rng.Key.(*ast.Ident)
	if !ok {
		return nil
	}
	return analysis.ObjectOf(pass.TypesInfo, id)
}

// enclosingFunc returns the innermost function node on the parent stack.
func enclosingFunc(parents []ast.Node) ast.Node {
	for i := len(parents) - 1; i >= 0; i-- {
		switch parents[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return parents[i]
		}
	}
	return nil
}

// sortedAfter reports whether a sort.* / slices.Sort* call with obj as
// its first argument appears after the range statement in the same
// enclosing function — the canonical collect-then-sort idiom.
func sortedAfter(pass *analysis.Pass, encFunc ast.Node, rng *ast.RangeStmt, obj types.Object) bool {
	if encFunc == nil {
		return false
	}
	found := false
	ast.Inspect(encFunc, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || len(call.Args) == 0 {
			return true
		}
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok &&
			analysis.ObjectOf(pass.TypesInfo, id) == obj {
			found = true
			return false
		}
		return true
	})
	return found
}

// isWriterCall reports whether a callee name is output-shaped.
func isWriterCall(name string) bool {
	for _, prefix := range []string{"Fprint", "Print", "Write", "Encode"} {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			return true
		}
	}
	return false
}

// isFloat reports whether t's core type is a floating-point type.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
