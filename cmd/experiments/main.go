// Command experiments regenerates the tables and figures of the paper's
// evaluation section on the simulated platforms.
//
// Usage:
//
//	experiments [-scale tiny|small|medium|full] [-seed N] [-run LIST] [-out FILE]
//
// -run is a comma-separated list of table1, table2, table3, table4, fig3,
// fig4 and prefilter (the pre-alignment filter's selector×δ sweep), or
// "all" for the six paper experiments. Each experiment prints its markdown
// section, paper vs measured, as it finishes, and the paper's shape checks
// over what ran come last; -out writes the report header followed by
// exactly what was printed after the first line.
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
	started := time.Now()
	var (
		t1, t2, t3 *bench.Comparison
		t4         *bench.EnergyTable
		f3, f4     *bench.Series
	)
	// Everything -run can name, in the order it runs. The prefilter sweep is
	// no part of the paper's shape checks.
	experiments := []struct {
		name  string
		paper bool // selected by "all"
		run   func(*bench.Dataset) (renderer, error)
	}{
		{"table1", true, into(&t1, bench.Table1)},
		{"table2", true, into(&t2, bench.Table2)},
		{"table3", true, into(&t3, bench.Table3)},
		{"table4", true, into(&t4, bench.Table4)},
		{"fig3", true, into(&f3, bench.RunFig3)},
		{"fig4", true, into(&f4, bench.RunFig4)},
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
	// The report body is the console's, teed, so the two cannot drift.
	var body bytes.Buffer
	con := io.MultiWriter(w, &body)
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
		res.Render(con)
	}
	fmt.Fprint(con, "\n## Shape checks\n\n```\n")
	bench.RenderChecks(con, bench.CheckShapes(t1, t2, t3, t4, f3, f4))
	fmt.Fprint(con, "```\n")
	if outPath == "" {
		return nil
	}
	var md bytes.Buffer
	bench.WriteReportHeader(&md, sc, seed, time.Since(started))
	md.Write(body.Bytes())
	return os.WriteFile(outPath, md.Bytes(), 0o644)
}
