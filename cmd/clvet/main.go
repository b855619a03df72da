// Command clvet runs the repository's static-analysis suite
// (internal/analysis/clvet): the simulated-OpenCL kernel contract, the
// whole-pipeline checks (determinism, lock-guard annotations, error
// taxonomy, trace discipline), the one hot-path allocation rule and the
// directive grammar.
//
// Usage:
//
//	go run ./cmd/clvet ./...
//	go run ./cmd/clvet -tests ./internal/cl
//	go run ./cmd/clvet -json ./... > findings.json
//
// Diagnostics print in go-vet style (file:line:col: message (analyzer))
// and any finding makes the command exit non-zero, so CI can use it as
// a gate; -json switches to a machine-readable array of findings.
// Packages are loaded and type-checked entirely from source, once, and
// shared across every analyzer — no build cache, network or go command
// is needed at analysis time.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/clvet"
)

// finding is the -json shape of one diagnostic.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	tests := flag.Bool("tests", false, "also analyze in-package _test.go files")
	list := flag.Bool("list", false, "list the analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: clvet [-tests] [-json] [packages]\n\nAnalyzers:\n")
		for _, a := range clvet.Analyzers() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-18s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range clvet.Analyzers() {
			fmt.Printf("%s: %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fatal(err)
	}
	loader.IncludeTests = *tests
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fatal(err)
	}
	diags, err := analysis.Run(clvet.Analyzers(), pkgs)
	if err != nil {
		fatal(err)
	}

	if *jsonOut {
		findings := make([]finding, 0, len(diags))
		for _, d := range diags {
			pos := loader.Fset.Position(d.Pos)
			findings = append(findings, finding{
				File: pos.Filename, Line: pos.Line, Col: pos.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s: %s (%s)\n", loader.Fset.Position(d.Pos), d.Message, d.Analyzer)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "clvet:", err)
	os.Exit(2)
}
