// Command experiments regenerates the tables and figures of the paper's
// evaluation section on the simulated platforms.
//
// Usage:
//
//	experiments [-scale tiny|small|medium|full] [-seed N] [-run LIST] [-out FILE]
//
// -run is a comma-separated list of table1, table2, table3, table4, fig3,
// fig4 and prefilter (the pre-alignment filter's selector×δ sweep), or
// "all" for the six paper experiments. The paper's shape checks over what
// ran are printed last; -out also writes a markdown report, paper vs measured.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
)

type renderer interface{ Render(io.Writer) }

// into makes a table entry of an experiment: run it, file the result in
// *dst, hand it back for the console.
func into[T renderer](dst *T, f func(*bench.Dataset) (T, error)) func(*bench.Dataset) (renderer, error) {
	return func(ds *bench.Dataset) (renderer, error) {
		var err error
		*dst, err = f(ds)
		return *dst, err
	}
}

func main() {
	scaleFlag := flag.String("scale", "small", "workload scale: tiny, small, medium, full or REFLEN:READS")
	seedFlag := flag.Int64("seed", 1, "dataset generation seed")
	runFlag := flag.String("run", "all", "experiments to run (comma list, or 'all' for the six paper experiments)")
	outFlag := flag.String("out", "", "also write the markdown report of what ran to this file")
	flag.Parse()
	if err := run(os.Stdout, *scaleFlag, *seedFlag, *runFlag, *outFlag); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, scaleName string, seed int64, runList, outPath string) error {
	sc, err := bench.ScaleByName(scaleName)
	if err != nil {
		return err
	}
	report := &bench.Report{Scale: sc, Seed: seed, Started: time.Now()}
	// Everything -run can name, in the order it runs. The prefilter sweep is
	// no part of the paper's report, so its result only reaches the console.
	experiments := []struct {
		name  string
		paper bool // selected by "all"
		run   func(*bench.Dataset) (renderer, error)
	}{
		{"table1", true, into(&report.T1, bench.Table1)},
		{"table2", true, into(&report.T2, bench.Table2)},
		{"table3", true, into(&report.T3, bench.Table3)},
		{"table4", true, into(&report.T4, bench.Table4)},
		{"fig3", true, into(&report.F3, bench.RunFig3)},
		{"fig4", true, into(&report.F4, bench.RunFig4)},
		{"prefilter", false, into(new(*bench.PrefilterBench), bench.RunPrefilterBench)},
	}
	want := map[string]bool{}
	for _, item := range strings.Split(runList, ",") {
		item = strings.ToLower(strings.TrimSpace(item))
		var valid []string
		for _, e := range experiments {
			valid = append(valid, e.name)
			if item == e.name || item == "all" && e.paper {
				want[e.name] = true
			}
		}
		if item != "all" && !want[item] {
			return fmt.Errorf("-run: unknown experiment %q (valid: %s, all)", item, strings.Join(valid, ", "))
		}
	}
	fmt.Fprintf(w, "running at scale %q (ref %d bp, %d reads/set)...\n", sc.Name, sc.RefLen, sc.ReadsPerSet)
	ds, err := bench.BuildDataset(sc, seed)
	if err != nil {
		return err
	}
	for _, e := range experiments {
		if !want[e.name] {
			continue
		}
		res, err := e.run(ds)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		res.Render(w)
		fmt.Fprintln(w)
	}
	report.Duration = time.Since(report.Started)
	bench.RenderChecks(w, bench.CheckShapes(report.T1, report.T2, report.T3, report.T4, report.F3, report.F4))
	if outPath == "" {
		return nil
	}
	var md bytes.Buffer
	report.WriteMarkdown(&md)
	fmt.Fprintf(w, "\nwriting markdown report to %s\n", outPath)
	return os.WriteFile(outPath, md.Bytes(), 0o644)
}
