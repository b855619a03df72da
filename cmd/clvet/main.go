// Command clvet runs the repository's static-analysis suite
// (internal/analysis/clvet): pipeline determinism, the one hot-path
// allocation rule and the directive grammar. Test files are not
// analyzed.
//
// Usage:
//
//	go run ./cmd/clvet ./...
//
// Diagnostics print in go-vet style (file:line:col: message (analyzer))
// and any finding makes the command exit non-zero, so CI can use it as
// a gate. Packages are loaded and type-checked entirely from source,
// once, and shared across every analyzer — no build cache, network or
// go command is needed at analysis time.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/clvet"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: clvet [packages]\n\nAnalyzers:\n")
		for _, a := range clvet.Analyzers() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-18s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fatal(err)
	}
	diags, err := analysis.Run(clvet.Analyzers(), pkgs)
	if err != nil {
		fatal(err)
	}

	for _, d := range diags {
		fmt.Printf("%s: %s (%s)\n", loader.Fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "clvet:", err)
	os.Exit(2)
}
