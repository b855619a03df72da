// Command repute is the REPUTE mapper CLI: build a persistent FM-index
// artifact from a reference and map FASTQ reads on the simulated
// heterogeneous platforms, emitting SAM.
//
// Usage:
//
//	repute index build -ref ref.fa -out ref.ridx [-sa-rate 0]
//	                   [-shards K -overlap N]
//	repute index info  -index ref.ridx
//	repute map {-index ref.ridx | -ref ref.fa} -reads reads.fq [-e 5] [-smin 0]
//	           [-platform system1|system1-cpu|hikey970] [-split 0.52,0.24,0.24]
//	           [-max-locations 100] [-selector dp|coral] [-prefilter off|gatekeeper] [-out out.sam]
//	           [-trace trace.json] [-metrics-out metrics.prom]
//	           [-batch 4096] [-lenient] [-checkpoint run.ckpt [-resume]]
//	           [-reads2 r2.fq [-min-insert N -max-insert N]]
//
// `index build` writes a versioned container (magic, format version,
// SHA-256 section checksums, shard table) wrapping one FM-index per
// shard; `map -index` verifies and loads it instead of rebuilding the
// suffix array every run, and `map -ref` builds the same single-shard
// artifact in memory and maps through the same path. A -shards K artifact
// partitions the reference into K overlapping slices and `map` dispatches
// one slice per device, broadcasting every read batch to all shards and
// merging candidates in global coordinates.
//
// Reads always stream from the FASTQ file through one checkpointable
// loop: -batch N maps them in batches of N (bounded memory; 0, the
// default, is one whole-input batch), -checkpoint makes the run
// crash-safe and -resume continues an interrupted one, bit-identically.
// -lenient skips malformed records instead of aborting. -reads2 makes a
// paired run on the same loop: a batch holds -batch fragments, each
// fragment's two mates mapping side by side (-lenient does not apply).
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cl"
	"repro/internal/core"
	"repro/internal/fastx"
	"repro/internal/fmindex"
	"repro/internal/genome"
	"repro/internal/index"
	"repro/internal/mapper"
	"repro/internal/seed"
	"repro/internal/serve"
	"repro/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "index":
		err = runIndex(os.Args[2:])
	case "map":
		err = runMap(os.Args[2:])
	case "serve":
		err = runServe(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		usage()
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "repute:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `repute — OpenCL-style read mapper for heterogeneous systems (simulated devices)

subcommands:
  index build  -ref ref.fa -out ref.ridx [-sa-rate N] [-shards K -overlap N]
  index info   -index ref.ridx
  map          {-index ref.ridx | -ref ref.fa} -reads reads.fq [flags]
  serve        -index ref.ridx -spool DIR [-addr :8377] [flags]`)
}

func runIndex(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "build":
			return runIndexBuild(args[1:])
		case "info":
			return runIndexInfo(args[1:])
		}
	}
	return fmt.Errorf("index: want a subcommand, build or info")
}

func runIndexBuild(args []string) error {
	fs := flag.NewFlagSet("index build", flag.ExitOnError)
	refPath := fs.String("ref", "", "reference FASTA (required)")
	outPath := fs.String("out", "", "output index artifact path (required)")
	saRate := fs.Int("sa-rate", 0, "suffix-array sample rate (0 = full SA; >0 trades locate speed for memory)")
	shards := fs.Int("shards", 1, "partition the reference into this many overlapping shards (shard dispatch holds one slice per device)")
	overlap := fs.Int("overlap", 0,
		fmt.Sprintf("shard slice overlap in bases (0 = default %d; map rejects overlaps < read length + 2δ)", index.DefaultOverlap))
	fs.Parse(args)
	if *refPath == "" || *outPath == "" {
		return fmt.Errorf("index build: -ref and -out are required")
	}
	if *shards < 1 {
		return fmt.Errorf("index build: -shards must be ≥ 1")
	}
	g, err := loadReference(*refPath)
	if err != nil {
		return err
	}
	start := time.Now()
	f, err := index.Build(g, *shards, *overlap, fmindex.Options{SASampleRate: *saRate})
	if err != nil {
		return err
	}
	if err := index.Save(*outPath, f); err != nil {
		return err
	}
	st, err := os.Stat(*outPath)
	if err != nil {
		return err
	}
	d := f.Digest()
	fmt.Printf("indexed %d contig(s), %d bp into %d shard(s) in %s (%d B on disk, locate=%s, digest %x)\n",
		len(g.Contigs()), g.Len(), len(f.Indexes), time.Since(start).Round(time.Millisecond),
		st.Size(), locateMode(*saRate), d[:8])
	return nil
}

func runIndexInfo(args []string) error {
	fs := flag.NewFlagSet("index info", flag.ExitOnError)
	indexPath := fs.String("index", "", "index artifact (or pass the path as the sole positional argument)")
	fs.Parse(args)
	path := *indexPath
	if path == "" && fs.NArg() == 1 {
		path = fs.Arg(0)
	}
	if path == "" {
		return fmt.Errorf("index info: -index is required")
	}
	info, err := index.ReadInfoFile(path)
	if err != nil {
		return err
	}
	m := &info.Meta
	fmt.Printf("%s: index container v%d, %d B in %d section(s)\n",
		path, index.Version, info.TotalBytes, len(info.Sections))
	fmt.Printf("  reference: %d bp, %d contig(s)\n", m.RefBases, len(m.Contigs))
	for i, c := range m.Contigs {
		if i == 8 {
			fmt.Printf("    … %d more contig(s)\n", len(m.Contigs)-i)
			break
		}
		fmt.Printf("    %s: %d bp at offset %d\n", c.Name, c.Length, c.Offset)
	}
	fmt.Printf("  locate:    %s\n", locateMode(m.SASampleRate))
	if m.Sharded() {
		fmt.Printf("  shards:    %d, overlap %d bases\n", len(m.Shards), m.Overlap)
		for i, s := range m.Shards {
			fmt.Printf("    shard %d: owns [%d,%d) over slice [%d,%d)\n",
				i, s.OwnStart, s.OwnEnd, s.SliceStart, s.SliceEnd)
		}
	} else {
		fmt.Printf("  shards:    1 (whole reference)\n")
	}
	for i, s := range info.Sections {
		kind := "fm-index shard"
		if i == 0 {
			kind = "meta"
		}
		fmt.Printf("  section %d: %s, %d B, sha256 %x…\n", i, kind, s.Length, s.SHA256[:8])
	}
	fmt.Printf("  digest:    %x\n", info.Digest)
	return nil
}

func locateMode(rate int) string {
	if rate <= 0 {
		return "full suffix array"
	}
	return fmt.Sprintf("sampled 1/%d", rate)
}

// loadReference parses the reference FASTA with the same Scanner that
// streams the reads; a malformed file stops with a *fastx.ParseError
// naming the file and line.
func loadReference(path string) (*genome.Genome, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := fastx.NewScanner(f, fastx.ScanOptions{Format: fastx.FormatFASTA, Name: path})
	var recs []fastx.Record
	for sc.Scan() {
		rec := sc.Record()
		// FASTA names may contain descriptions; keep the first token so
		// SAM RNAMEs stay clean.
		if fields := strings.Fields(rec.Name); len(fields) > 0 {
			rec.Name = fields[0]
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no FASTA records found", path)
	}
	return genome.FromFasta(recs)
}

func platformDevices(name string) ([]*cl.Device, error) {
	switch name {
	case "system1":
		return cl.SystemOne().Devices, nil
	case "system1-cpu":
		return []*cl.Device{cl.SystemOneCPU()}, nil
	case "hikey970":
		return cl.HiKey970().Devices, nil
	default:
		return nil, fmt.Errorf("unknown platform %q (system1, system1-cpu, hikey970)", name)
	}
}

func parseSplit(s string, n int) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("split has %d entries for %d devices", len(parts), n)
	}
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad split entry %q: %v", p, err)
		}
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("bad split entry %q: want a finite share >= 0", p)
		}
		out[i] = v
	}
	return out, nil
}

func runMap(args []string) error {
	fs := flag.NewFlagSet("map", flag.ExitOnError)
	indexPath := fs.String("index", "", "index artifact built by `repute index build`")
	refPath := fs.String("ref", "", "reference FASTA: rebuild the index in memory instead of loading -index")
	saRate := fs.Int("sa-rate", 0, "suffix-array sample rate for the -ref rebuild path")
	readsPath := fs.String("reads", "", "FASTQ reads (required; mate 1 when -reads2 is given)")
	reads2Path := fs.String("reads2", "", "FASTQ mate-2 reads: enables paired-end mode")
	minInsert := fs.Int("min-insert", 100, "paired mode: minimum fragment length")
	maxInsert := fs.Int("max-insert", 1000, "paired mode: maximum fragment length")
	errorsFlag := fs.Int("e", 5, "maximum edit distance δ")
	sminFlag := fs.Int("smin", 0, "minimum k-mer length Smin (0 = auto)")
	platform := fs.String("platform", "system1-cpu", "device platform: system1, system1-cpu, hikey970")
	splitFlag := fs.String("split", "", "per-device workload split, e.g. 0.52,0.24,0.24")
	maxLoc := fs.Int("max-locations", 100, "first-n locations reported per read")
	selector := fs.String("selector", "dp", "filtration: dp (REPUTE) or coral (heuristic)")
	prefilterFlag := fs.String("prefilter", "off", "pre-alignment filter before verification: off or gatekeeper")
	cigarFlag := fs.Bool("cigar", false, "recover CIGAR strings for reported mappings")
	outPath := fs.String("out", "", "SAM output path (default stdout)")
	tracePath := fs.String("trace", "", "write a Chrome trace-event file of the simulated run (chrome://tracing, Perfetto)")
	metricsPath := fs.String("metrics-out", "", "write the run's metric snapshot here (.prom suffix = Prometheus text exposition, else JSON)")
	batchFlag := fs.Int("batch", 0, "map reads (fragments in paired mode) in batches of this size, holding one batch in memory (0 = the whole input as one batch)")
	ckptFlag := fs.String("checkpoint", "", "persist a resumable checkpoint here at every batch boundary (needs -out)")
	resumeFlag := fs.Bool("resume", false, "continue an interrupted run from -checkpoint")
	lenientFlag := fs.Bool("lenient", false, "skip malformed/unmappable records instead of aborting (not in paired mode)")
	fs.Parse(args)
	if (*indexPath == "") == (*refPath == "") {
		return fmt.Errorf("map: exactly one of -index and -ref is required")
	}
	if *readsPath == "" {
		return fmt.Errorf("map: -reads is required")
	}
	if *batchFlag < 0 {
		return fmt.Errorf("map: -batch must be ≥ 0")
	}
	if *resumeFlag && *ckptFlag == "" {
		return fmt.Errorf("map: -resume requires -checkpoint")
	}
	if *ckptFlag != "" && *outPath == "" {
		return fmt.Errorf("map: -checkpoint requires -out (a resume truncates and appends the SAM file; stdout cannot)")
	}

	devices, err := platformDevices(*platform)
	if err != nil {
		return err
	}
	split, err := parseSplit(*splitFlag, len(devices))
	if err != nil {
		return err
	}
	var sel seed.Selector
	name := "REPUTE"
	switch *selector {
	case "dp":
		sel = seed.REPUTE{}
	case "coral":
		sel, name = seed.CORAL{}, "CORAL"
	default:
		return fmt.Errorf("unknown selector %q (dp, coral)", *selector)
	}
	switch *prefilterFlag {
	case mapper.PrefilterOff, mapper.PrefilterGateKeeper:
	default:
		return fmt.Errorf("unknown prefilter %q (off, gatekeeper)", *prefilterFlag)
	}
	var rec *trace.Recorder
	if *tracePath != "" || *metricsPath != "" {
		rec = trace.NewRecorder()
	}
	cfg := core.Config{Name: name, Selector: sel, Split: split, Tracer: rec}
	// finish exports whatever observability outputs were requested; every
	// successful mapping path ends through it.
	finish := func() error {
		if err := writeTrace(rec, *tracePath); err != nil {
			return err
		}
		return writeMetrics(rec, *metricsPath)
	}

	// Reference index: a verified on-disk artifact (-index), or the same
	// single-shard artifact built in memory from FASTA (-ref).
	var f *index.File
	if *indexPath != "" {
		if f, err = index.LoadFile(*indexPath); err != nil {
			return fmt.Errorf("%w (rebuild with `repute index build`)", err)
		}
	} else {
		ref, err := loadReference(*refPath)
		if err != nil {
			return err
		}
		if f, err = index.Build(ref, 1, 0, fmindex.Options{SASampleRate: *saRate}); err != nil {
			return err
		}
	}
	// Coordinate-only genome: SAM emission needs contig boundaries, not
	// the reference text (that lives in the shard indexes).
	g, err := genome.FromContigs(f.Meta.Contigs)
	if err != nil {
		return err
	}
	if split != nil && f.Meta.Sharded() {
		return fmt.Errorf("map: -split does not apply to a sharded index (shard dispatch assigns one reference slice per device)")
	}
	p, err := serve.NewPipeline(f, devices, cfg)
	if err != nil {
		return err
	}
	opt := mapper.Options{
		MaxErrors:    *errorsFlag,
		MaxLocations: *maxLoc,
		MinSeedLen:   *sminFlag,
		Prefilter:    *prefilterFlag,
	}
	run := serve.Stream{
		Pipeline: p, Genome: g, Opt: opt,
		Cigar: *cigarFlag, Lenient: *lenientFlag, Batch: *batchFlag,
		ReadsPath: *readsPath, ReadsName: *readsPath, Reads2Path: *reads2Path,
		Pair:    mapper.PairOptions{MinInsert: int32(*minInsert), MaxInsert: int32(*maxInsert)},
		SAMPath: *outPath, CkptPath: *ckptFlag, Resume: *resumeFlag,
	}
	if *ckptFlag != "" {
		// Fail on an unusable checkpoint directory now, before any
		// mapping work, instead of at the first batch-boundary Save.
		if err := checkpoint.CheckDir(filepath.Dir(*ckptFlag)); err != nil {
			return err
		}
		// The fingerprint binds checkpoints to the index + options
		// combination. A loaded artifact carries its digest; one built in
		// memory gets it from a serialization pass, paid only here.
		if *refPath != "" {
			if _, err := f.WriteTo(io.Discard); err != nil {
				return err
			}
		}
		extra := []string{fmt.Sprintf("batch=%d", *batchFlag), fmt.Sprintf("lenient=%t", *lenientFlag),
			fmt.Sprintf("cigar=%t", *cigarFlag), "selector=" + *selector,
			"platform=" + *platform, "split=" + *splitFlag}
		if *reads2Path != "" {
			extra = append(extra, "reads2", fmt.Sprintf("insert=%d-%d", *minInsert, *maxInsert))
		}
		run.Fingerprint = checkpoint.FingerprintDigest(f.Digest(), opt, extra...)
	}
	if err := runMapStream(run); err != nil {
		return err
	}
	return finish()
}

// writeTrace validates and exports the recorded trace, if recording was
// requested.
func writeTrace(rec *trace.Recorder, path string) error {
	if rec == nil || path == "" {
		return nil
	}
	if err := rec.Validate(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChromeTrace(f, rec); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote Chrome trace to %s (open in chrome://tracing or ui.perfetto.dev)\n", path)
	return nil
}

// writeMetrics exports the run's metric snapshot, if requested: the
// Prometheus text exposition for a .prom path, deterministic JSON
// otherwise.
func writeMetrics(rec *trace.Recorder, path string) error {
	if rec == nil || path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	snap := rec.Metrics()
	if strings.HasSuffix(path, ".prom") {
		err = snap.WritePrometheus(f)
	} else {
		err = snap.WriteJSON(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote metric snapshot to %s\n", path)
	return nil
}
