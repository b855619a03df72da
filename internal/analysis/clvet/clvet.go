// Package clvet is the repository's one static-analysis suite, run by
// cmd/clvet. It turns the invariants the reproduction's guarantees rest
// on, but that no fixed-seed test reliably exercises, into a compile
// gate:
//
//   - pipedeterminism: pipeline packages (core, cl, checkpoint, fastx,
//     trace, index, sam, and the packages the mapping kernel executes:
//     mapper, seed, align, filter, fmindex) must not read wall clocks,
//     draw from the global math/rand source, or let map iteration order
//     reach outputs or serialized state — the serial/parallel and
//     kill-and-resume bit-identity guarantees depend on it.
//   - hotalloc: the one allocation rule. Functions annotated
//     //repute:hotpath — and everything they transitively call in the
//     same package — must not allocate outside owned scratch (the
//     receiver and parameters), use maps or call fmt; error-path
//     constructions are exempt.
//   - directive: the annotation grammar itself — unknown //repute:
//     verbs and the retired clvet/pipevet directive prefixes.
//
// Suppressions use //repute:allow <analyzer> -- <reason> on the
// offending line or the line above; the reason is mandatory
// (internal/analysis/directives.go). DESIGN.md §8 documents each
// analyzer's contract, and the rules retired analyzers once checked
// with the -race and typed-error tests that hold them now.
package clvet

import (
	"strings"

	"repro/internal/analysis"
)

// Analyzers returns the suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		PipeDeterminism,
		HotAlloc,
		Directive,
	}
}

// Directive checks the annotation grammar: a directive-shaped comment
// outside it would otherwise be ignored silently — a misspelt hotpath
// dropping a root from hotalloc, a misspelt allow suppressing nothing.
var Directive = &analysis.Analyzer{
	Name: "directive",
	Doc: "check that //repute: comments use a known verb (hotpath, allow) " +
		"and that no directive with a retired clvet or pipevet prefix is left",
	Run: func(pass *analysis.Pass) error {
		for _, c := range analysis.NewDirectives(pass).Malformed() {
			pass.Reportf(c.Pos(), "unknown directive %q; the grammar is //repute:hotpath "+
				"and //repute:allow <analyzer> -- <reason>", c.Text)
		}
		return nil
	},
}

// pipelineDirs are the internal packages under the determinism
// contract: everything between reading a record and writing a mapping
// (the mapping kernel's own packages included), plus the state that
// round-trips through checkpoints and traces.
var pipelineDirs = map[string]bool{
	"core": true, "cl": true, "checkpoint": true, "fastx": true,
	"trace": true, "index": true, "sam": true,
	"mapper": true, "seed": true, "align": true, "filter": true, "fmindex": true,
}

// inPipelineScope reports whether the pass's package is in
// pipedeterminism scope: one of the named internal packages.
func inPipelineScope(pass *analysis.Pass) bool {
	path := pass.Pkg.Path()
	base := path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		base = path[i+1:]
	}
	return pipelineDirs[base] && strings.Contains(path, "internal/")
}
