package clvet

import (
	"go/ast"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

// ErrWrap closes the fault-classification loophole: internal/core's
// recovery policies dispatch on errors.Is against the cl status-code
// sentinels (IsTransient retries in place, IsAllocFailure halves the
// batch, IsDeviceLost fails the span over), so an error born in
// internal/cl as a bare fmt.Errorf or errors.New is invisible to every
// one of them — the pipeline would treat an injected CL_OUT_OF_RESOURCES
// dressed in fmt.Errorf clothing as an unclassifiable fatal error.
//
// Inside package cl, every function-local error construction must be
// typed: a *cl.Error / *cl.AllocError composite, a Code sentinel, or a
// fmt.Errorf that wraps one with %w (package-level errors.New is how
// sentinels are born and stays legal). The check is syntactic; it does
// not prove the %w operand is itself typed, but a wrapped chain keeps
// errors.Is reachable, which is the property recovery needs.
var ErrWrap = &analysis.Analyzer{
	Name: "errwrap",
	Doc: "check that every error constructed in internal/cl is a typed *Error/Code " +
		"sentinel or wraps one with %w, keeping errors.Is classification alive",
	Run: runErrWrap,
}

func runErrWrap(pass *analysis.Pass) error {
	if pass.Pkg.Name() != "cl" {
		return nil
	}
	dirs := analysis.NewDirectives(pass)
	for _, f := range pass.Files {
		analysis.WalkParents(f, func(n ast.Node, parents []ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			fn := analysis.CalleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil {
				return
			}
			switch {
			case fn.Pkg().Path() == "fmt" && fn.Name() == "Errorf":
				if dirs.Allowed("errwrap", call.Pos()) {
					return
				}
				switch wrapVerb(call) {
				case wrapYes:
				case wrapNo:
					pass.Reportf(call.Pos(),
						"bare fmt.Errorf escapes internal/cl untyped: recovery classifies "+
							"faults with errors.Is (IsTransient/IsAllocFailure/IsDeviceLost); "+
							"return a *Error/Code sentinel or wrap one with %%w")
				case wrapUnknown:
					pass.Reportf(call.Pos(),
						"fmt.Errorf with a non-constant format cannot be checked for %%w; "+
							"use a constant format wrapping a typed cl error")
				}
			case fn.Pkg().Path() == "errors" && fn.Name() == "New":
				if enclosingFunc(parents) == nil {
					return // package-level sentinel declaration
				}
				if !dirs.Allowed("errwrap", call.Pos()) {
					pass.Reportf(call.Pos(),
						"errors.New inside a function escapes internal/cl untyped; declare "+
							"a package-level sentinel or return a *Error with a Code")
				}
			}
		})
	}
	dirs.ReportUnjustified(pass, "errwrap")
	return nil
}

const (
	wrapYes = iota
	wrapNo
	wrapUnknown
)

// wrapVerb classifies a fmt.Errorf call by its format string.
func wrapVerb(call *ast.CallExpr) int {
	if len(call.Args) == 0 {
		return wrapUnknown
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok {
		return wrapUnknown
	}
	format, err := strconv.Unquote(lit.Value)
	if err != nil {
		return wrapUnknown
	}
	if strings.Contains(format, "%w") {
		return wrapYes
	}
	return wrapNo
}
