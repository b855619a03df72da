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
// -lenient skips malformed records instead of aborting.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cl"
	"repro/internal/core"
	"repro/internal/dna"
	"repro/internal/fastx"
	"repro/internal/fmindex"
	"repro/internal/genome"
	"repro/internal/index"
	"repro/internal/mapper"
	"repro/internal/sam"
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
	// Nested subcommands `build` and `info`; the original flag form
	// (`repute index -ref ... -out ...`) predates them and stays as an
	// alias for `build`.
	if len(args) > 0 {
		switch args[0] {
		case "build":
			return runIndexBuild(args[1:])
		case "info":
			return runIndexInfo(args[1:])
		}
	}
	return runIndexBuild(args)
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

func loadReference(path string) (*genome.Genome, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := fastx.ReadFasta(f)
	if err != nil {
		return nil, err
	}
	// FASTA names may contain descriptions; keep the first token so SAM
	// RNAMEs stay clean.
	for i := range recs {
		if fields := strings.Fields(recs[i].Name); len(fields) > 0 {
			recs[i].Name = fields[0]
		}
	}
	return genome.FromFasta(recs, rand.New(rand.NewSource(0)))
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
	batchFlag := fs.Int("batch", 0, "map reads in batches of this size, holding one batch in memory (0 = the whole input as one batch)")
	ckptFlag := fs.String("checkpoint", "", "persist a resumable checkpoint here at every batch boundary (needs -out)")
	resumeFlag := fs.Bool("resume", false, "continue an interrupted run from -checkpoint")
	lenientFlag := fs.Bool("lenient", false, "skip malformed/unmappable records instead of aborting")
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
	if *reads2Path != "" && (*batchFlag > 0 || *ckptFlag != "" || *lenientFlag || *cigarFlag) {
		return fmt.Errorf("map: -batch, -checkpoint, -lenient and -cigar are not supported in paired mode")
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
	cfg := core.Config{Name: name, Selector: sel, Split: split}
	var rec *trace.Recorder
	if *tracePath != "" || *metricsPath != "" {
		// Assign only when recording: a typed-nil *Recorder in the
		// interface field would not read as "tracing off".
		rec = trace.NewRecorder()
		cfg.Tracer = rec
	}
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

	if *reads2Path != "" {
		if err := runMapPaired(p, g, *readsPath, *reads2Path, mapper.PairOptions{
			Options: opt, MinInsert: int32(*minInsert), MaxInsert: int32(*maxInsert),
		}, *outPath); err != nil {
			return err
		}
		return finish()
	}

	run := serve.Stream{
		Pipeline: p, Genome: g, Devices: devices, Opt: opt,
		Cigar: *cigarFlag, Lenient: *lenientFlag, Batch: *batchFlag,
		ReadsPath: *readsPath, ReadsName: *readsPath, SAMPath: *outPath, CkptPath: *ckptFlag,
		Tracer: cfg.Tracer,
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
		run.Fingerprint = checkpoint.FingerprintDigest(f.Digest(), opt,
			fmt.Sprintf("batch=%d", *batchFlag), fmt.Sprintf("lenient=%t", *lenientFlag),
			fmt.Sprintf("cigar=%t", *cigarFlag), "selector="+*selector,
			"platform="+*platform, "split="+*splitFlag)
	}
	if err := runMapStream(run, *resumeFlag); err != nil {
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

// loadReads reads a whole FASTQ file into memory (paired mode pairs mates
// by index, so both files must be resident).
func loadReads(path string) ([]fastx.Record, [][]byte, error) {
	rf, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	recs, err := fastx.ReadFastq(rf)
	rf.Close()
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(0))
	reads := make([][]byte, len(recs))
	for i, rec := range recs {
		if reads[i], err = fastx.CodesOf(rec, rng); err != nil {
			return nil, nil, err
		}
	}
	return recs, reads, nil
}

// runMapPaired maps mate pairs and writes properly-paired SAM records for
// concordant fragments, single-end records otherwise.
func runMapPaired(p *core.Pipeline, g *genome.Genome, reads1Path, reads2Path string,
	opt mapper.PairOptions, outPath string) error {
	recs1, reads1, err := loadReads(reads1Path)
	if err != nil {
		return err
	}
	recs2, reads2, err := loadReads(reads2Path)
	if err != nil {
		return err
	}
	if len(recs2) != len(recs1) {
		return fmt.Errorf("paired input mismatch: %d mate-1 reads, %d mate-2 reads",
			len(recs1), len(recs2))
	}
	res, err := p.MapPairs(reads1, reads2, opt)
	if err != nil {
		return err
	}

	var out io.Writer = os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	refs := make([]sam.RefSeq, len(g.Contigs()))
	for i, c := range g.Contigs() {
		refs[i] = sam.RefSeq{Name: c.Name, Length: c.Length}
	}
	sw, err := sam.NewMultiWriter(out, refs)
	if err != nil {
		return err
	}
	concordant := 0
	for i := range reads1 {
		name := strings.TrimSuffix(recs1[i].Name, "/1")
		wrote := false
		for _, pr := range res.Pairs[i] {
			// Both mates must sit inside one contig.
			if g.SpansBoundary(int(pr.First.Pos), len(reads1[i])) ||
				g.SpansBoundary(int(pr.Second.Pos), len(reads2[i])) {
				continue
			}
			c1, off1, err := g.Locate(int(pr.First.Pos))
			if err != nil {
				return err
			}
			c2, off2, err := g.Locate(int(pr.Second.Pos))
			if err != nil {
				return err
			}
			if c1.Name != c2.Name {
				continue
			}
			local := pr
			local.First.Pos = int32(off1)
			local.Second.Pos = int32(off2)
			if err := sw.WritePair(name,
				[]byte(dna.Decode(reads1[i])), []byte(dna.Decode(reads2[i])),
				local, c1.Name); err != nil {
				return err
			}
			concordant++
			wrote = true
			break // primary pair only
		}
		if wrote {
			continue
		}
		// Discordant fragment: fall back to single-end records per mate.
		for mate, ms := range [][]mapper.Mapping{res.Single1[i], res.Single2[i]} {
			reads := reads1
			if mate == 1 {
				reads = reads2
			}
			mateName := fmt.Sprintf("%s/%d", name, mate+1)
			if _, err := serve.WriteReadAlignments(sw, g, p, mateName, reads[i], ms, false, 0); err != nil {
				return err
			}
		}
	}
	if err := sw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"paired mapping: %d/%d fragments concordant, simulated time %.3f s, energy %.2f J\n",
		concordant, len(reads1), res.SimSeconds, res.EnergyJ)
	return nil
}
