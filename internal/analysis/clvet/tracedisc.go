package clvet

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"repro/internal/analysis"
)

// TraceDisc enforces trace discipline at the two places it decays:
//
// Span pairing. trace.Tracer.Begin opens a span whose duration only
// exists once End is called; a Begin that misses End on some path —
// typically an early error return added after the span was — leaves the
// recorder with an open span, fails Recorder.Validate, and exports a
// broken timeline. For every Begin whose result is bound to an
// identifier, the analyzer accepts a deferred End of that id (closures
// included) as covering all paths; otherwise it requires an inline End
// before every return of the enclosing function that follows the Begin
// in source order, and at least one End overall. A Begin whose SpanID
// is discarded can never be ended and is always flagged.
//
// Metric names. Registry call sites (Counter/Gauge/Histogram) are where
// the metric namespace is minted, so conventions are checked there:
// names are snake_case segments separated by "/" (dynamic suffixes like
// per-lane names concatenate after a literal prefix ending in "/"),
// counters end their family segment in _total, gauges and histograms
// must not. Constant-foldable names are checked exactly; a literal
// prefix of a concatenation is checked as a prefix.
var TraceDisc = &analysis.Analyzer{
	Name: "tracedisc",
	Doc: "check trace span Begin/End pairing on all paths and metric-name " +
		"conventions (snake_case, _total counters) at registry call sites",
	Run: runTraceDisc,
}

func runTraceDisc(pass *analysis.Pass) error {
	dirs := analysis.NewDirectives(pass)
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkSpanPairing(pass, dirs, fd)
			}
		}
		analysis.WalkParents(f, func(n ast.Node, parents []ast.Node) {
			if call, ok := n.(*ast.CallExpr); ok {
				checkMetricName(pass, dirs, call)
			}
		})
	}
	dirs.ReportUnjustified(pass, "tracedisc")
	return nil
}

// isTracePackage reports whether pkg is the tracing package.
func isTracePackage(pkg *types.Package) bool {
	return pkg != nil && (pkg.Path() == "repro/internal/trace" ||
		strings.HasSuffix(pkg.Path(), "/internal/trace"))
}

// traceMethodCall resolves call to a method of the trace package with
// the given name (interface or concrete receiver).
func traceMethodCall(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Name() != name || !isTracePackage(fn.Pkg()) {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// beginSite is one Begin call in a function.
type beginSite struct {
	call *ast.CallExpr
	id   types.Object // nil when the result is discarded
}

// endSite is one End call in a function.
type endSite struct {
	pos      token.Pos
	id       types.Object
	deferred bool
}

// checkSpanPairing analyzes one function declaration. The scope is the
// whole declaration including nested closures — a deferred closure
// calling End is the idiomatic pairing — but return statements inside
// closures belong to the closure, not the function, and are ignored.
func checkSpanPairing(pass *analysis.Pass, dirs *analysis.Directives, fd *ast.FuncDecl) {
	var (
		begins  []beginSite
		ends    []endSite
		returns []token.Pos
	)
	analysis.WalkParents(fd.Body, func(n ast.Node, parents []ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			if traceMethodCall(pass, n, "Begin") {
				begins = append(begins, beginSite{call: n, id: beginTarget(pass, n, parents)})
			}
			if traceMethodCall(pass, n, "End") && len(n.Args) > 0 {
				if id, ok := ast.Unparen(n.Args[0]).(*ast.Ident); ok {
					if obj := analysis.ObjectOf(pass.TypesInfo, id); obj != nil {
						ends = append(ends, endSite{
							pos: n.Pos(), id: obj, deferred: underDefer(parents),
						})
					}
				}
			}
		case *ast.ReturnStmt:
			if sameScope(parents) {
				returns = append(returns, n.Pos())
			}
		}
	})

	for _, b := range begins {
		if dirs.Allowed("tracedisc", b.call.Pos()) {
			continue
		}
		if b.id == nil {
			pass.Reportf(b.call.Pos(),
				"span id returned by Begin is discarded; the span can never be "+
					"Ended — bind the id and defer End")
			continue
		}
		var deferredEnd bool
		var inline []token.Pos
		for _, e := range ends {
			if e.id != b.id {
				continue
			}
			if e.deferred {
				deferredEnd = true
			} else {
				inline = append(inline, e.pos)
			}
		}
		if deferredEnd {
			continue
		}
		if len(inline) == 0 {
			pass.Reportf(b.call.Pos(),
				"span begun here is never Ended; defer End(id, ...) so error paths "+
					"close it too")
			continue
		}
		for _, ret := range returns {
			if ret < b.call.End() {
				continue
			}
			covered := false
			for _, e := range inline {
				if e > b.call.Pos() && e < ret {
					covered = true
					break
				}
			}
			if !covered {
				pass.Reportf(b.call.Pos(),
					"span begun here is not Ended before every return (a return at %s "+
						"leaves it open); defer End(id, ...) to cover all paths",
					pass.Fset.Position(ret))
				break
			}
		}
	}
}

// beginTarget returns the object the Begin call's result is bound to,
// or nil when it is discarded.
func beginTarget(pass *analysis.Pass, call *ast.CallExpr, parents []ast.Node) types.Object {
	if len(parents) == 0 {
		return nil
	}
	switch p := parents[len(parents)-1].(type) {
	case *ast.AssignStmt:
		for i, rhs := range p.Rhs {
			if ast.Unparen(rhs) == call && i < len(p.Lhs) {
				if id, ok := ast.Unparen(p.Lhs[i]).(*ast.Ident); ok {
					return analysis.ObjectOf(pass.TypesInfo, id)
				}
			}
		}
	case *ast.ValueSpec:
		for i, v := range p.Values {
			if ast.Unparen(v) == call && i < len(p.Names) {
				return analysis.ObjectOf(pass.TypesInfo, p.Names[i])
			}
		}
	}
	return nil
}

// sameScope reports whether a node belongs to the declaration the walk
// is rooted at, with no closure in between — the walk starts at the
// declaration's body, so an empty-of-FuncLit ancestor stack means the
// node's returns are the declaration's own.
func sameScope(parents []ast.Node) bool {
	for i := len(parents) - 1; i >= 0; i-- {
		if _, ok := parents[i].(*ast.FuncLit); ok {
			return false
		}
	}
	return true
}

// metricSegRe is one snake_case metric path segment.
var metricSegRe = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// checkMetricName validates the name argument of Registry metric
// constructors.
func checkMetricName(pass *analysis.Pass, dirs *analysis.Directives, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || !isTracePackage(fn.Pkg()) {
		return
	}
	kind := fn.Name()
	if kind != "Counter" && kind != "Gauge" && kind != "Histogram" {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || len(call.Args) == 0 {
		return
	}
	if rt := sig.Recv().Type(); !isNamedType(rt, "Registry") {
		return
	}
	name, exact := literalMetricName(pass, call.Args[0])
	if name == "" || dirs.Allowed("tracedisc", call.Pos()) {
		return
	}

	family, rest, _ := strings.Cut(name, "/")
	if !metricSegRe.MatchString(family) {
		pass.Reportf(call.Pos(),
			"metric name %q: family segment %q is not snake_case ([a-z][a-z0-9_]*)",
			name, family)
		return
	}
	if exact && rest != "" {
		for _, seg := range strings.Split(rest, "/") {
			if !metricSegRe.MatchString(seg) {
				pass.Reportf(call.Pos(),
					"metric name %q: segment %q is not snake_case", name, seg)
				return
			}
		}
	}
	totalFamily := strings.HasSuffix(family, "_total")
	if kind == "Counter" && !totalFamily {
		pass.Reportf(call.Pos(),
			"counter %q must name its family with a _total suffix", name)
	}
	if kind != "Counter" && totalFamily {
		pass.Reportf(call.Pos(),
			"%s %q must not use the _total suffix (reserved for counters)",
			strings.ToLower(kind), name)
	}
}

// isNamedType reports whether t (possibly behind a pointer) is the
// named type with the given name.
func isNamedType(t types.Type, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == name
}

// literalMetricName extracts the compile-time-known part of a metric
// name expression: a constant-foldable string is exact; a constant
// prefix of a concatenation (name + lane) is checked as the family,
// with its trailing "/" stripped. Fully dynamic names return "".
func literalMetricName(pass *analysis.Pass, arg ast.Expr) (name string, exact bool) {
	if tv, ok := pass.TypesInfo.Types[arg]; ok && tv.Value != nil &&
		tv.Value.Kind() == constant.String {
		return constant.StringVal(tv.Value), true
	}
	e := ast.Unparen(arg)
	for {
		bin, ok := e.(*ast.BinaryExpr)
		if !ok || bin.Op != token.ADD {
			return "", false
		}
		if tv, ok := pass.TypesInfo.Types[bin.X]; ok && tv.Value != nil &&
			tv.Value.Kind() == constant.String {
			return strings.TrimSuffix(constant.StringVal(tv.Value), "/"), false
		}
		e = ast.Unparen(bin.X)
	}
}
