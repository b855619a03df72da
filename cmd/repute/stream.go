package main

// The CLI's side of the stream runner (serve.RunStream, DESIGN.md §11):
// the graceful-stop signal handler, the kill/delay test hooks, and the
// stderr summary.

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/serve"
)

// runMapStream runs one `repute map` pass through the stream runner.
func runMapStream(run serve.Stream) error {
	// Graceful shutdown: the first SIGINT/SIGTERM requests a stop at the
	// next batch boundary (AfterBatch returns core.Stop once that
	// boundary's checkpoint is durable); a second signal falls back to
	// default delivery and kills the process — which is exactly the crash
	// the checkpoint protocol survives. A whole-input batch has no
	// boundary to stop at, so its signals keep their default delivery.
	var stopped atomic.Bool
	if run.Batch > 0 {
		sigCh := make(chan os.Signal, 1)
		signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sigCh)
		go func() {
			<-sigCh
			stopped.Store(true)
			signal.Stop(sigCh)
		}()
	}
	batchesThisRun := 0
	run.AfterBatch = func(*checkpoint.State) error {
		batchesThisRun++
		if n := envInt("REPUTE_KILL_AFTER_BATCH"); n > 0 && batchesThisRun >= n {
			// Test hook: die as abruptly as SIGKILL would, after this
			// batch's checkpoint is durable.
			os.Exit(137)
		}
		if d := envInt("REPUTE_STREAM_BATCH_DELAY_MS"); d > 0 {
			time.Sleep(time.Duration(d) * time.Millisecond)
		}
		if stopped.Load() {
			return core.Stop
		}
		return nil
	}

	wallStart := time.Now()
	st, err := serve.RunStream(context.Background(), run)
	interrupted := err == core.Stop
	if err != nil && !interrupted {
		return err
	}
	wall := time.Since(wallStart)

	if st.Dropped > 0 {
		fmt.Fprintf(os.Stderr, "dropped %d boundary-spanning alignment(s)\n", st.Dropped)
	}
	fmt.Fprintf(os.Stderr,
		"mapped %d reads in %d batch(es): %d with locations, %d total locations\n"+
			"simulated mapping time %.3f s, marginal energy %.2f J (host wall %s)\n",
		st.Reads, st.Batches, st.Mapped, st.Locations,
		st.SimSeconds, st.EnergyJ, wall.Round(time.Millisecond))
	devs := make([]string, 0, len(st.DeviceSeconds))
	for dev := range st.DeviceSeconds {
		devs = append(devs, dev)
	}
	sort.Strings(devs)
	for _, dev := range devs {
		fmt.Fprintf(os.Stderr, "  %-32s %.3f s busy\n", dev, st.DeviceSeconds[dev])
	}
	if run.Reads2Path != "" {
		fmt.Fprintf(os.Stderr, "paired: %d/%d fragments concordant\n", st.Concordant, st.Reads/2)
	}
	if st.Faults.SkippedRecords > 0 {
		fmt.Fprintf(os.Stderr, "skipped %d malformed/unmappable record(s): %s\n",
			st.Faults.SkippedRecords, formatReasons(st.Faults.SkipReasons))
	}
	if interrupted {
		if run.CkptPath != "" {
			return fmt.Errorf("map: interrupted after %d read(s); resume with -resume -checkpoint %s",
				st.Reads, run.CkptPath)
		}
		return fmt.Errorf("map: interrupted after %d read(s)", st.Reads)
	}
	return nil
}

// formatReasons renders a reason→count map deterministically.
func formatReasons(m map[string]int) string {
	reasons := make([]string, 0, len(m))
	for r := range m {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	s := ""
	for i, r := range reasons {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s=%d", r, m[r])
	}
	return s
}

// envInt reads a non-negative integer environment hook (0 when unset or
// malformed).
func envInt(name string) int {
	v := os.Getenv(name)
	if v == "" {
		return 0
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0
	}
	return n
}
