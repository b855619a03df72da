package clvet

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// LockGuard enforces "guarded by" field annotations: a struct field
// whose doc or trailing comment says "guarded by <path>" may only be
// read or written while the named mutex is held. The guard path is
// resolved against sibling fields — "mu" names a mutex in the same
// struct, "ctx.mu" a mutex one field-hop away — and must end at a
// sync.Mutex or sync.RWMutex; annotations that do not resolve are
// themselves reported.
//
// The check is a source-order sweep per function: a <base>.<path>.Lock()
// or RLock() call marks the rendered lock expression held, a plain
// Unlock()/RUnlock() releases it, and a deferred unlock keeps it held to
// the end of the function. Each access to an annotated field requires
// the matching lock expression — the access base plus the guard path,
// compared textually — to be held at that point in source order.
// Branch-sensitive flows (conditionally acquired locks, goroutine
// handoffs) are beyond the sweep; a justified //repute:allow documents
// those sites.
//
// Constructors are naturally exempt: composite literals name fields
// without selector syntax, and a value not yet shared needs no lock.
var LockGuard = &analysis.Analyzer{
	Name: "lockguard",
	Doc: "check that fields annotated \"guarded by <mu>\" are only accessed " +
		"with the named mutex held",
	Run: runLockGuard,
}

// fieldGuard is one validated annotation: the field object and the
// dot-joined guard path.
type fieldGuard struct {
	path []string
}

func runLockGuard(pass *analysis.Pass) error {
	dirs := analysis.NewDirectives(pass)
	guards := map[*types.Var]fieldGuard{}
	for _, ann := range dirs.GuardAnnotations() {
		if !validGuardPath(pass, ann) {
			pass.Reportf(ann.Pos,
				"guard path %q of field %s does not resolve to a sync.Mutex/RWMutex "+
					"reachable from sibling fields", strings.Join(ann.Path, "."), ann.Name.Name)
			continue
		}
		guards[ann.Obj] = fieldGuard{path: ann.Path}
	}
	if len(guards) > 0 {
		for _, f := range pass.Files {
			if isTestFile(pass, f) {
				continue
			}
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					checkGuardedAccesses(pass, dirs, guards, fd)
				}
			}
		}
	}
	dirs.ReportUnjustified(pass, "lockguard")
	return nil
}

// validGuardPath resolves ann.Path against the annotated field's struct
// and checks the final type is a sync mutex.
func validGuardPath(pass *analysis.Pass, ann analysis.GuardAnnotation) bool {
	t := pass.TypesInfo.TypeOf(ann.Struct)
	for _, seg := range ann.Path {
		st, ok := deref(t).Underlying().(*types.Struct)
		if !ok {
			return false
		}
		var next types.Type
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i).Name() == seg {
				next = st.Field(i).Type()
				break
			}
		}
		if next == nil {
			return false
		}
		t = next
	}
	return isMutexType(t)
}

func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex (possibly
// behind a pointer).
func isMutexType(t types.Type) bool {
	n, ok := deref(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// lgEvent is one lock-relevant happening in a function, ordered by
// source position.
type lgEvent struct {
	pos      token.Pos
	kind     int // 0 = lock, 1 = unlock, 2 = guarded access
	key      string
	deferred bool
	field    string // access events: field name for the message
	guard    string // access events: required lock expression
}

// checkGuardedAccesses sweeps one function in source order.
func checkGuardedAccesses(pass *analysis.Pass, dirs *analysis.Directives,
	guards map[*types.Var]fieldGuard, fd *ast.FuncDecl) {

	var events []lgEvent
	analysis.WalkParents(fd.Body, func(n ast.Node, parents []ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				return
			}
			var kind int
			switch sel.Sel.Name {
			case "Lock", "RLock":
				kind = 0
			case "Unlock", "RUnlock":
				kind = 1
			default:
				return
			}
			if t := pass.TypesInfo.TypeOf(sel.X); t == nil || !isMutexType(t) {
				return
			}
			events = append(events, lgEvent{
				pos: n.Pos(), kind: kind,
				key:      types.ExprString(sel.X),
				deferred: underDefer(parents),
			})
		case *ast.SelectorExpr:
			fv, ok := pass.TypesInfo.Uses[n.Sel].(*types.Var)
			if !ok {
				return
			}
			g, ok := guards[fv]
			if !ok {
				return
			}
			events = append(events, lgEvent{
				pos: n.Pos(), kind: 2,
				key:   types.ExprString(n.X) + "." + strings.Join(g.path, "."),
				field: n.Sel.Name,
				guard: strings.Join(g.path, "."),
			})
		}
	})
	if len(events) == 0 {
		return
	}
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	held := map[string]bool{}
	for _, ev := range events {
		switch ev.kind {
		case 0:
			held[ev.key] = true
		case 1:
			// A deferred unlock releases at function exit, after every
			// later access in source order — the lock stays held for the
			// sweep's purposes.
			if !ev.deferred {
				held[ev.key] = false
			}
		case 2:
			if !held[ev.key] && !dirs.Allowed("lockguard", ev.pos) {
				pass.Reportf(ev.pos,
					"field %s is guarded by %s, which is not held here; lock %s first "+
						"(or //repute:allow lockguard -- <reason> for single-owner phases)",
					ev.field, ev.guard, ev.key)
			}
		}
	}
}

// underDefer reports whether the node's ancestors include a defer
// statement (directly deferred calls and calls inside deferred
// closures both run at function exit).
func underDefer(parents []ast.Node) bool {
	for _, p := range parents {
		if _, ok := p.(*ast.DeferStmt); ok {
			return true
		}
	}
	return false
}
