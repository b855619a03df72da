// Package analysistest runs an analyzer over testdata packages and
// checks its diagnostics against expectations written in the source,
// mirroring golang.org/x/tools/go/analysis/analysistest: a comment
//
//	// want "regexp"
//
// on a line asserts that the analyzer reports a diagnostic on that line
// matching the regexp; several quoted regexps assert several
// diagnostics. Every diagnostic must be wanted and every want must be
// matched.
package analysistest

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// wantRe extracts the quoted regexps of a want comment; both "..." and
// backquoted forms are accepted, as in upstream analysistest.
var wantRe = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

type expectation struct {
	rx      *regexp.Regexp
	raw     string
	matched bool
}

// Run loads testdata/src/<pkg> for each named package, applies the
// analyzer, and reports mismatches on t. The testdata directory must
// live inside the module so that testdata sources may import real
// module packages.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	loader, err := analysis.NewLoader(testdata)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	for _, pkgpath := range pkgs {
		dir := filepath.Join(testdata, "src", filepath.FromSlash(pkgpath))
		pkg, err := loader.LoadDir(dir, pkgpath)
		if err != nil {
			t.Errorf("analysistest: loading %s: %v", pkgpath, err)
			continue
		}
		checkPackage(t, a, pkg)
	}
}

func checkPackage(t *testing.T, a *analysis.Analyzer, pkg *analysis.Package) {
	t.Helper()

	// Collect want expectations, keyed by file:line of the comment.
	wants := map[string][]*expectation{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				idx := strings.Index(text, "want ")
				if idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := posKey(pos)
				for _, q := range wantRe.FindAllString(text[idx+len("want "):], -1) {
					raw, err := strconv.Unquote(q)
					if err != nil {
						t.Errorf("%s: bad want pattern %s: %v", key, q, err)
						continue
					}
					rx, err := regexp.Compile(raw)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", key, raw, err)
						continue
					}
					wants[key] = append(wants[key], &expectation{rx: rx, raw: raw})
				}
			}
		}
	}

	diags, err := analysis.Run([]*analysis.Analyzer{a}, []*analysis.Package{pkg})
	if err != nil {
		t.Errorf("analysistest: %s: %v", pkg.Path, err)
		return
	}

	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		key := posKey(pos)
		found := false
		for _, w := range wants[key] {
			if !w.matched && w.rx.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", key, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: no diagnostic matching %q", key, w.raw)
			}
		}
	}
}

func posKey(pos token.Position) string {
	return fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
}
