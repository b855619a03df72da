package analysis

// Directive comments: the one source-level annotation grammar every
// analyzer reads through this parser, so all agree on syntax and
// placement rules:
//
//	//repute:hotpath
//	    on a function declaration's doc comment — marks the function a
//	    hot-path root for allocation analysis (hotalloc follows its
//	    same-package transitive callees).
//
//	//repute:allow <analyzer> -- <reason>
//	    on the offending line, or the line directly above — suppresses
//	    one analyzer's diagnostics on that line. The reason is
//	    mandatory: an allow without one is itself reported by the named
//	    analyzer and is NOT honored, so suppressions always carry their
//	    justification in the source.
//
// Any other //repute: verb, and the retired clvet and pipevet
// prefixes, are collected as malformed (a misspelt or stale marker would
// otherwise be silently ignored) and reported by the directive analyzer.

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

var (
	directiveRe = regexp.MustCompile(`^//(repute|clvet|pipevet):(\S*)\s*(.*)$`)
	allowRe     = regexp.MustCompile(`^([a-z][a-z0-9_,]*)\s*(?:--\s*(.*))?$`)
)

type allowKey struct {
	analyzer string
	file     string
	line     int
}

// Directives is the parsed directive set of one package.
type Directives struct {
	fset    *token.FileSet
	allows  map[allowKey]bool
	missing map[string][]token.Pos // analyzer -> unjustified allow positions
	// malformed are the directive-shaped comments outside the grammar.
	malformed []*ast.Comment
}

// NewDirectives parses every directive comment in the pass's files.
func NewDirectives(pass *Pass) *Directives {
	d := &Directives{
		fset:    pass.Fset,
		allows:  map[allowKey]bool{},
		missing: map[string][]token.Pos{},
	}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d.parseComment(c)
			}
		}
	}
	return d
}

func (d *Directives) parseComment(c *ast.Comment) {
	m := directiveRe.FindStringSubmatch(strings.TrimSpace(c.Text))
	if m == nil {
		return
	}
	prefix, verb, rest := m[1], m[2], m[3]
	allow := allowRe.FindStringSubmatch(rest)
	switch {
	case prefix != "repute":
		d.malformed = append(d.malformed, c)
	case verb == "hotpath" && rest == "":
		// Read off the declaration's doc comment by HotpathRoot.
	case verb == "allow" && allow != nil:
		reason := strings.TrimSpace(allow[2])
		pos := d.fset.Position(c.Pos())
		for _, analyzer := range strings.Split(allow[1], ",") {
			if reason == "" {
				d.missing[analyzer] = append(d.missing[analyzer], c.Pos())
				continue
			}
			d.allows[allowKey{analyzer, pos.Filename, pos.Line}] = true
		}
	default:
		d.malformed = append(d.malformed, c)
	}
}

// Allowed reports whether a diagnostic of the named analyzer at pos is
// suppressed by a justified //repute:allow on the same line or the
// line directly above.
func (d *Directives) Allowed(analyzer string, pos token.Pos) bool {
	p := d.fset.Position(pos)
	return d.allows[allowKey{analyzer, p.Filename, p.Line}] ||
		d.allows[allowKey{analyzer, p.Filename, p.Line - 1}]
}

// ReportUnjustified reports every //repute:allow naming the analyzer
// that carries no "-- <reason>" justification. Unjustified allows are
// not honored, so the diagnostic they meant to suppress also fires.
func (d *Directives) ReportUnjustified(pass *Pass, analyzer string) {
	for _, pos := range d.missing[analyzer] {
		pass.Reportf(pos, "//repute:allow %s without a justification; "+
			"write //repute:allow %s -- <reason> (the suppression is not honored)",
			analyzer, analyzer)
	}
}

// Malformed returns the directive-shaped comments outside the grammar:
// unknown //repute: verbs and the retired clvet and pipevet prefixes.
func (d *Directives) Malformed() []*ast.Comment { return d.malformed }

// HotpathRoot reports whether fd's doc comment carries the
// //repute:hotpath directive.
func HotpathRoot(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == "//repute:hotpath" {
			return true
		}
	}
	return false
}
