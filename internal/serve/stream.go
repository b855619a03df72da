package serve

// The checkpointed stream runner: the one FASTQ → core.MapStream → SAM
// loop behind `repute map` (every form of it) and every `repute serve`
// job attempt (DESIGN.md §11). Callers supply what genuinely differs —
// how the resumed state was loaded, which explicit fault plan is armed
// on the devices, and an after-batch hook for progress, drain and kill.

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/cl"
	"repro/internal/core"
	"repro/internal/fastx"
	"repro/internal/genome"
	"repro/internal/index"
	"repro/internal/mapper"
	"repro/internal/sam"
)

// NewPipeline builds the pipeline over a loaded index artifact: one
// core.Shard per FM-index section, so a whole-reference artifact is the
// one-shard case of the same constructor.
func NewPipeline(f *index.File, devices []*cl.Device, cfg core.Config) (*core.Pipeline, error) {
	shards := make([]core.Shard, len(f.Indexes))
	for i, s := range f.Meta.Shards {
		shards[i] = core.Shard{
			Index:      f.Indexes[i],
			OwnStart:   s.OwnStart,
			OwnEnd:     s.OwnEnd,
			SliceStart: s.SliceStart,
			SliceEnd:   s.SliceEnd,
		}
	}
	return core.NewSharded(shards, f.Meta.Overlap, devices, cfg)
}

// Stream describes one pass of the stream runner.
type Stream struct {
	// Pipeline maps the reads; the environment fault plan is armed on its
	// devices and their fault ordinals are checkpointed.
	Pipeline *core.Pipeline
	Genome   *genome.Genome
	Opt      mapper.Options
	Cigar    bool
	Lenient  bool
	// Batch is the number of reads — of fragments in a paired run — per
	// batch; 0 maps the whole input as one batch.
	Batch     int
	ReadsPath string
	ReadsName string // names the input in parse errors
	// Reads2Path, when set, is the mate-2 file of a paired run: record i
	// of each file is fragment i, whose mates map as two adjacent reads of
	// one batch and pair up within the Pair insert band.
	Reads2Path string
	Pair       mapper.PairOptions
	// SAMPath is the output file; "" writes to stdout, which a
	// checkpointed run cannot do (a resume truncates and appends).
	SAMPath string
	// CkptPath, when set, makes the run crash-safe: every batch boundary
	// persists a checkpoint binding the SAM prefix, the input offset, the
	// RNG draw count and the device fault ordinals. Fingerprint is
	// stamped into a fresh run's checkpoints.
	CkptPath    string
	Fingerprint string
	// Resume continues from a loaded checkpoint the caller has verified
	// against Fingerprint; nil starts fresh.
	Resume *checkpoint.State
	// AfterBatch runs once the batch's SAM records and checkpoint are
	// durable; returning core.Stop ends the run cleanly at that boundary.
	AfterBatch func(*checkpoint.State) error
}

// RunStream maps the reads file batch by batch and returns the final
// state — the run's cumulative tallies, simulated totals and resume
// point. A resumed run truncates the SAM file to the checkpointed prefix
// (a crash can leave extra flushed bytes past it, never fewer), seeks
// the scanner to the checkpointed offset, fast-forwards the codec and
// restores the fault ordinals, so its output is bit-identical to an
// uninterrupted run's. A paired run does the same for both mate files.
// On core.Stop the state is returned with the error.
func RunStream(ctx context.Context, s Stream) (*checkpoint.State, error) {
	if s.Lenient && s.Reads2Path != "" {
		return nil, fmt.Errorf("lenient parsing does not apply to paired input (a skipped record would put the mates out of step)")
	}
	st := s.Resume
	if st == nil {
		st = &checkpoint.State{Version: checkpoint.Version, Fingerprint: s.Fingerprint, BatchSize: s.Batch}
	} else if st.BatchSize != s.Batch {
		return nil, fmt.Errorf("checkpoint: batch size %d differs from this run's %d (batch boundaries would shift)",
			st.BatchSize, s.Batch)
	}
	if st.DeviceSeconds == nil {
		st.DeviceSeconds = map[string]float64{}
	}

	// Arm the environment fault plan before the first Map so the resumed
	// ordinal counters can be seated; Pipeline.Map would otherwise arm it
	// lazily with fresh counters and the injection schedule would replay
	// from the start instead of continuing.
	devices := s.Pipeline.Devices()
	if err := cl.ArmFaults(cl.EnvFaultPlan(), devices); err != nil {
		return nil, err
	}
	for _, d := range devices {
		if o, ok := st.FaultOrdinals[d.Name]; ok {
			d.RestoreFaultOrdinals(o)
		}
	}

	refs := make([]sam.RefSeq, len(s.Genome.Contigs()))
	for i, c := range s.Genome.Contigs() {
		refs[i] = sam.RefSeq{Name: c.Name, Length: c.Length}
	}
	// Fresh runs write a headered SAM file (or stdout); resumes truncate
	// to the checkpointed prefix and append header-less records.
	out := os.Stdout
	switch {
	case s.SAMPath == "":
	case s.Resume == nil:
		var err error
		if out, err = os.Create(s.SAMPath); err != nil {
			return nil, err
		}
		defer out.Close()
	default:
		var err error
		if out, err = os.OpenFile(s.SAMPath, os.O_RDWR, 0); err != nil {
			return nil, err
		}
		defer out.Close()
		if err := out.Truncate(st.SAMBytes); err != nil {
			return nil, err
		}
		if _, err := out.Seek(st.SAMBytes, io.SeekStart); err != nil {
			return nil, err
		}
	}
	sw := sam.NewAppendWriter(out, refs[0].Name)
	if s.Resume == nil {
		var err error
		if sw, err = sam.NewMultiWriter(out, refs); err != nil {
			return nil, err
		}
	}
	// flush pushes the records written so far to the file and, for a
	// checkpointed run, makes them the SAM prefix the next save binds.
	flush := func() error {
		if err := sw.Flush(); err != nil {
			return err
		}
		if s.CkptPath == "" {
			return nil
		}
		pos, err := out.Seek(0, io.SeekCurrent)
		st.SAMBytes = pos
		return err
	}

	batch := s.Batch
	if batch == 0 {
		batch = math.MaxInt
	}
	// A paired run reads one record per source call from each mate file
	// and zips them into batches of fragments.
	perCall := batch
	if s.Reads2Path != "" {
		perCall = 1
	}
	src, rf, err := s.source(s.ReadsPath, s.ReadsName,
		core.StreamToken{Offset: st.Offset, Line: st.Line, RNGDraws: st.RNGDraws}, perCall, st.Reads)
	if err != nil {
		return nil, err
	}
	defer rf.Close()
	if s.Reads2Path != "" {
		src2, rf2, err := s.source(s.Reads2Path, s.Reads2Path,
			core.StreamToken{Offset: st.Offset2, Line: st.Line2, RNGDraws: st.RNGDraws2}, 1, 0)
		if err != nil {
			return nil, err
		}
		defer rf2.Close()
		src = s.zipMates(src, src2, batch, st.Reads)
	}

	// baseFaults preserves the resumed run's cumulative tallies: per-batch
	// device-fault stats accumulate on top, while the skip tallies are
	// recomputed as base + this process's scanner totals.
	baseFaults := st.Faults
	save := func() error {
		if s.CkptPath == "" {
			return nil
		}
		return checkpoint.Save(s.CkptPath, st)
	}

	emit := func(b core.StreamBatch, res *mapper.Result) error {
		if err := s.writeBatch(sw, b, res.Mappings, st); err != nil {
			return err
		}
		if err := flush(); err != nil {
			return err
		}
		st.Batches++
		st.Reads = b.Start + len(b.Reads)
		st.Mapped += res.MappedReads()
		st.Locations += res.TotalLocations()
		st.SimSeconds += res.SimSeconds
		st.EnergyJ += res.EnergyJ
		for dev, sec := range res.DeviceSeconds {
			st.DeviceSeconds[dev] += sec
		}
		st.Cost.Add(res.Cost)
		st.Faults.Add(res.Faults)
		applySkips(st, baseFaults, b.Token.Skipped)
		st.Offset = b.Token.Offset
		st.Line = b.Token.Line
		st.RNGDraws = b.Token.RNGDraws
		st.Offset2, st.Line2, st.RNGDraws2 = b.Mate2.Offset, b.Mate2.Line, b.Mate2.RNGDraws
		st.FaultOrdinals = snapshotOrdinals(devices)
		if err := save(); err != nil {
			return err
		}
		if s.AfterBatch != nil {
			return s.AfterBatch(st)
		}
		return nil
	}

	last, err := s.Pipeline.MapStream(ctx, src, s.Opt, emit)
	if err != nil {
		return st, err
	}
	// Trailing lenient skips (between the last full batch and EOF) arrive
	// with the final empty batch, whose token carries this process's
	// scanner totals; fold them onto the resumed baseline.
	applySkips(st, baseFaults, last.Skipped)
	if err := flush(); err != nil {
		return st, err
	}
	return st, save()
}

// source opens a reads file at a checkpointed position and returns its
// scan source, cutting batches of batch reads, with the file to close.
func (s Stream) source(path, name string, at core.StreamToken, batch, startRead int) (func() (core.StreamBatch, error), *os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	if _, err := f.Seek(at.Offset, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	sc := fastx.NewScanner(f, fastx.ScanOptions{
		Format:     fastx.FormatFASTQ,
		Lenient:    s.Lenient,
		Name:       name,
		Tracer:     s.Pipeline.Tracer(),
		BaseOffset: at.Offset,
		BaseLine:   at.Line,
	})
	// Each file gets its own seed-0 codec, so a mate's ambiguous bases
	// resolve the same whatever the other file holds.
	codec := fastx.NewCodec(0)
	codec.FastForward(at.RNGDraws)
	return core.NewScanSource(sc, codec, batch, s.Lenient, s.Opt.MaxErrors, startRead), f, nil
}

// zipMates cuts batches of up to batch fragments from two mate sources
// that yield one record per call: mate 1 and mate 2 of each fragment
// become two adjacent reads. A pair of records whose names (first
// token, less a trailing /1 or /2) differ, or a file that ends before
// the other, is an error.
func (s Stream) zipMates(src1, src2 func() (core.StreamBatch, error), batch, startRead int) func() (core.StreamBatch, error) {
	index, next := 0, startRead
	return func() (core.StreamBatch, error) {
		b := core.StreamBatch{Index: index, Start: next}
		for frags := 0; frags < batch; frags++ {
			m1, err := src1()
			if err != nil {
				return b, err
			}
			m2, err := src2()
			if err != nil {
				return b, err
			}
			b.Token, b.Mate2 = m1.Token, m2.Token
			if len(m1.Reads) != len(m2.Reads) {
				short, long := s.ReadsName, s.Reads2Path
				if len(m1.Reads) > 0 {
					short, long = long, short
				}
				return b, fmt.Errorf("paired input: %s ends before %s", short, long)
			}
			if len(m1.Reads) == 0 {
				break
			}
			if fragmentName(m1.Names[0]) != fragmentName(m2.Names[0]) {
				return b, fmt.Errorf("paired input: %s record %q ending at line %d is not the mate of %s record %q",
					s.Reads2Path, m2.Names[0], m2.Token.Line, s.ReadsName, m1.Names[0])
			}
			b.Names = append(b.Names, m1.Names[0], m2.Names[0])
			b.Reads = append(b.Reads, m1.Reads[0], m2.Reads[0])
		}
		index++
		next += len(b.Reads)
		return b, nil
	}
}

// fragmentName is the fragment a mate's record names: the first
// whitespace-delimited token, less a trailing /1 or /2.
func fragmentName(name string) string {
	if f := strings.Fields(name); len(f) > 0 {
		name = f[0]
	}
	if strings.HasSuffix(name, "/1") || strings.HasSuffix(name, "/2") {
		name = name[:len(name)-2]
	}
	return name
}

// applySkips sets st's skip tallies to the resumed baseline plus this
// process's scanner totals, always with a fresh map.
func applySkips(st *checkpoint.State, base mapper.FaultStats, sk fastx.SkipStats) {
	st.Faults.SkippedRecords = base.SkippedRecords + sk.Records
	if base.SkipReasons == nil && sk.Reasons == nil {
		st.Faults.SkipReasons = nil
		return
	}
	m := make(map[string]int, len(base.SkipReasons)+len(sk.Reasons))
	for r, n := range base.SkipReasons {
		m[r] += n
	}
	for r, n := range sk.Reasons {
		m[r] += n
	}
	st.Faults.SkipReasons = m
}

// snapshotOrdinals captures every armed device's fault ordinals.
func snapshotOrdinals(devices []*cl.Device) map[string]cl.FaultOrdinals {
	var m map[string]cl.FaultOrdinals
	for _, d := range devices {
		if o, ok := d.FaultOrdinals(); ok {
			if m == nil {
				m = map[string]cl.FaultOrdinals{}
			}
			m[d.Name] = o
		}
	}
	return m
}
