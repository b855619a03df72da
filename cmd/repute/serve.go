package main

// `repute serve`: the long-lived mapping service front end over
// internal/serve. Loads the index artifact once, serves mapping jobs
// over HTTP, and on SIGINT/SIGTERM performs the graceful drain
// protocol — stop admitting, checkpoint the in-flight job, report what
// is resumable, exit nonzero so supervisors know work remains. A
// restart over the same -spool resumes unfinished jobs bit-identically
// (DESIGN.md §14).

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/index"
	"repro/internal/serve"
)

func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	indexPath := fs.String("index", "", "index artifact to serve (required; build with `repute index build`)")
	spool := fs.String("spool", "", "job spool directory (required; survives restarts)")
	addr := fs.String("addr", ":8377", "listen address")
	platform := fs.String("platform", "system1", "device pool: system1, system1-cpu or hikey970")
	maxQueue := fs.Int("max-queue", 8, "admission control: maximum queued jobs before 429")
	maxBytes := fs.Int64("max-inflight-bytes", 256<<20, "admission control: maximum summed upload bytes in flight before 429")
	maxUpload := fs.Int64("max-upload-bytes", 64<<20, "maximum single upload size")
	batch := fs.Int("batch", 512, "default streaming batch size (jobs may override with ?batch=)")
	retries := fs.Int("retry-budget", 2, "re-queue a failing job this many times before failing it")
	maxConcurrent := fs.Int("max-concurrent", 0, "jobs running at once over disjoint device partitions (0 = min(4, pool size); 1 = strict serial FIFO)")
	errorsFlag := fs.Int("e", 5, "maximum edit distance δ")
	maxLoc := fs.Int("max-locations", 100, "first-n locations reported per read")
	fs.Parse(args)
	if *indexPath == "" || *spool == "" {
		return fmt.Errorf("serve: -index and -spool are required")
	}

	// Per-job chaos arrives via the X-Repute-Faults header; a process-wide
	// env plan would be auto-armed by the pipeline on every job and leak
	// injected device loss across job boundaries, so drop it loudly.
	if os.Getenv("REPUTE_CL_FAULTS") != "" {
		fmt.Fprintln(os.Stderr, "serve: ignoring REPUTE_CL_FAULTS (use the per-job X-Repute-Faults header)")
		os.Unsetenv("REPUTE_CL_FAULTS")
	}

	devices, err := platformDevices(*platform)
	if err != nil {
		return err
	}
	f, err := index.LoadFile(*indexPath)
	if err != nil {
		return fmt.Errorf("%w (rebuild with `repute index build`)", err)
	}
	// Bind before the service starts, so the log names the address
	// actually bound (-addr 127.0.0.1:0 picks a free port).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	defer ln.Close() //nolint:errcheck // Shutdown closes it too; this covers the early returns
	srv, err := serve.New(serve.Config{
		Index:            f,
		Devices:          devices,
		Spool:            *spool,
		MaxQueue:         *maxQueue,
		MaxInflightBytes: *maxBytes,
		MaxUploadBytes:   *maxUpload,
		DefaultBatch:     *batch,
		RetryBudget:      *retries,
		MaxConcurrent:    *maxConcurrent,
		MaxErrors:        *errorsFlag,
		MaxLocations:     *maxLoc,
		// The per-batch delay hook `repute map` reads too.
		StepDelay: time.Duration(envInt("REPUTE_STREAM_BATCH_DELAY_MS")) * time.Millisecond,
	})
	if err != nil {
		return err
	}
	if n := srv.Queued(); n > 0 {
		fmt.Fprintf(os.Stderr, "serve: re-queued %d unfinished job(s) from %s\n", n, *spool)
	}

	d := f.Digest()
	fmt.Fprintf(os.Stderr, "serve: listening on %s (index digest %x, platform %s)\n",
		ln.Addr(), d[:8], *platform)
	hs := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	select {
	case err := <-errCh:
		srv.Drain()
		return err
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "serve: %s: draining (new jobs rejected, in-flight job checkpointing)\n", sig)
	}

	// Drain: the in-flight job stops at its next batch boundary with its
	// checkpoint durable; then stop the HTTP listener.
	unfinished := srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	hs.Shutdown(ctx) //nolint:errcheck // already exiting
	if len(unfinished) > 0 {
		for _, j := range unfinished {
			fmt.Fprintf(os.Stderr, "serve: %s %s after %d read(s)\n", j.ID, j.State, j.Reads)
		}
		return fmt.Errorf("serve: interrupted with %d unfinished job(s); restart with the same -spool to resume",
			len(unfinished))
	}
	fmt.Fprintln(os.Stderr, "serve: drained clean")
	return nil
}
