package main

// Inputs. Everything the program sees is generated here: one
// chromosome-21-like reference, the index artifacts built and saved from
// it, and — from -seed — the read sets. The program then receives only
// those inputs: an artifact path it loads, read slices, FASTQ files and
// uploads.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dna"
	"repro/internal/eval"
	"repro/internal/fastx"
	"repro/internal/fmindex"
	"repro/internal/genome"
	"repro/internal/index"
	"repro/internal/simulate"
)

// scale sizes one run of the suite. The full scale is the benchmark; the
// smoke scale runs the same code in seconds for `go test`.
type scale struct {
	name   string
	refLen int
	// opBatch is the number of reads one Map operation sees, jobReads the
	// number one serve job uploads.
	opBatch, jobReads int
	// reads is the fixed-size read count per workload (for cli-exact,
	// per invocation).
	reads map[string]int
	// cliRuns is the number of timed cli-exact invocations in a
	// fixed-size run; they take turns on cliFiles FASTQ files.
	cliRuns, cliFiles int
	// replayBatches is how many leading batches the traced pass replays
	// layer by layer; setupReps is how often set-up is repeated.
	replayBatches int
	setupReps     int
	// serveTraceJobs is the length of the traced serve loop.
	serveTraceJobs int
}

// The reference is 16 Mbp so that the packed BWT (4 MB) plus its rank
// checkpoints no longer fits a 4 MiB L2 and the full suffix array (64 MB)
// is far beyond it: FM rank and locate then miss cache the way they do on
// a real chromosome. Read counts size each measured phase to roughly
// 15–25 s on the 2-core box the benchmark was calibrated on. cli-exact
// maps few reads per invocation on purpose: a small job against a big
// index, so that loading the artifact, not seeding, is the largest share.
var fullScale = scale{
	name:     "full",
	refLen:   16 << 20,
	opBatch:  256,
	jobReads: 256,
	reads: map[string]int{
		"map-dp":       30 * 1024,
		"map-verify":   150 * 1024,
		"map-shard-gk": 12 * 1024,
		"cli-exact":    4 * 1024,
		"serve-jobs":   110 * 256,
	},
	cliRuns:        36,
	cliFiles:       4,
	replayBatches:  8,
	setupReps:      5,
	serveTraceJobs: 16,
}

var smokeScale = scale{
	name:     "smoke",
	refLen:   200_000,
	opBatch:  32,
	jobReads: 32,
	reads: map[string]int{
		"map-dp":       3 * 32,
		"map-verify":   3 * 32,
		"map-shard-gk": 3 * 32,
		"cli-exact":    2 * 512,
		"serve-jobs":   4 * 32,
	},
	cliRuns:        2,
	cliFiles:       2,
	replayBatches:  2,
	setupReps:      2,
	serveTraceJobs: 2,
}

const (
	// refSeed fixes the reference: like a real chromosome it is the
	// dataset, and -seed draws the reads from it. Measured on ten seeds, a
	// reference that changed with the seed spread the simulated cost per
	// read by 11–14 % on the repeat-sensitive workloads (its high-copy
	// families differ), against 4 % with the reference fixed — more than
	// any bound could absorb.
	refSeed      = 21
	shardCount   = 4
	shardOverlap = 256
	// timedHeadroom is how many times the fixed-size read count a
	// time-bounded run generates, so a several-fold faster program still
	// sees distinct reads for the whole phase.
	timedHeadroom = 4
)

// artifact is one saved index file with the cost of producing it.
type artifact struct {
	path    string
	buildS  float64
	saveS   float64
	fileMB  float64
	sharded bool
}

// readSet is a simulated read set with its ground truth. The last batch
// reads are never measured: they feed the untimed warm-up operation.
type readSet struct {
	reads   [][]byte
	origins []eval.Origin
	warmup  [][]byte
}

// env is one invocation's state: parameters, scratch directory and the
// lazily generated inputs.
type env struct {
	seed    int64
	scale   scale
	seconds float64 // > 0: time-bounded measured phases
	root    string  // module root, where `go build` runs
	dir     string  // scratch directory inside the checkout
	logf    func(format string, args ...any)

	ref       []byte
	genome    *genome.Genome
	artifacts map[bool]*artifact
	binary    string
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("benchmark: no go.mod above the working directory; run from the repository")
		}
		dir = parent
	}
}

// newEnv creates the scratch directory under <root>/.bench_build, so
// the benchmark reads and writes only inside its checkout.
func newEnv(seed int64, sc scale, seconds float64, logf func(string, ...any)) (*env, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	return &env{seed: seed, scale: sc, seconds: seconds, root: root, dir: dir, logf: logf,
		artifacts: map[bool]*artifact{}}, nil
}

func (e *env) close() { os.RemoveAll(e.dir) }

// reference generates the reference on first use.
func (e *env) reference() (*genome.Genome, error) {
	if e.genome != nil {
		return e.genome, nil
	}
	e.ref = simulate.Reference(simulate.Chr21Like(e.scale.refLen, refSeed))
	g, err := genome.New([]string{"chr21s"}, [][]byte{e.ref})
	if err != nil {
		return nil, err
	}
	e.genome = g
	return g, nil
}

// artifact builds and saves the whole-index or the 4-shard artifact on
// first use. Workloads only ever load the saved file.
func (e *env) artifact(sharded bool) (*artifact, error) {
	if a := e.artifacts[sharded]; a != nil {
		return a, nil
	}
	g, err := e.reference()
	if err != nil {
		return nil, err
	}
	a := &artifact{path: filepath.Join(e.dir, "ref.ridx"), sharded: sharded}
	shards, overlap := 1, 0
	if sharded {
		a.path = filepath.Join(e.dir, "ref4.ridx")
		shards, overlap = shardCount, shardOverlap
	}
	t0 := time.Now()
	f, err := index.Build(g, shards, overlap, fmindex.Options{})
	if err != nil {
		return nil, err
	}
	a.buildS = time.Since(t0).Seconds()
	t0 = time.Now()
	if err := index.Save(a.path, f); err != nil {
		return nil, err
	}
	a.saveS = time.Since(t0).Seconds()
	st, err := os.Stat(a.path)
	if err != nil {
		return nil, err
	}
	a.fileMB = float64(st.Size()) / 1e6
	e.logf("index: %d shard(s) built in %.2fs, saved in %.2fs (%.1f MB)", shards, a.buildS, a.saveS, a.fileMB)
	e.artifacts[sharded] = a
	return a, nil
}

// readCount is how many reads a workload's measured phase may draw on.
func (e *env) readCount(w *workload) int {
	n := e.scale.reads[w.name]
	switch {
	case w.kind == kindCLI:
		n *= e.scale.cliFiles // the same files whatever the phase length
	case e.seconds > 0:
		n *= timedHeadroom
	}
	return n
}

// readsFor samples the workload's read set: ERR012100-like reads at
// seed+100, or error-free reads of the same length for cli-exact.
func (e *env) readsFor(w *workload) (*readSet, error) {
	if _, err := e.reference(); err != nil {
		return nil, err
	}
	prof := simulate.ERR012100
	if w.exactReads {
		prof = simulate.ReadProfile{Name: "exact", Length: simulate.ERR012100.Length}
	}
	n := e.readCount(w)
	set, err := simulate.Reads(e.ref, n+w.batch, prof, e.seed+100)
	if err != nil {
		return nil, err
	}
	rs := &readSet{reads: set.Reads[:n], warmup: set.Reads[n:], origins: make([]eval.Origin, n)}
	for i, o := range set.Origins[:n] {
		rs.origins[i] = eval.Origin{Pos: o.Pos, Strand: o.Strand, Edits: o.Edits}
	}
	return rs, nil
}

// readName is the FASTQ name of read i; parsing it back orders SAM
// records on the read axis.
func readName(i int) string { return fmt.Sprintf("r%d", i) }

// fastqOf renders reads[lo:hi] as FASTQ with names r<lo>..r<hi-1>.
func fastqOf(reads [][]byte, lo, hi int) []byte {
	recs := make([]fastx.Record, 0, hi-lo)
	for i := lo; i < hi; i++ {
		recs = append(recs, fastx.Record{Name: readName(i), Seq: []byte(dna.Decode(reads[i]))})
	}
	var buf bytes.Buffer
	_ = fastx.WriteFastq(&buf, recs) // a bytes.Buffer write cannot fail
	return buf.Bytes()
}
