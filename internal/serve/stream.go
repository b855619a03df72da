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

	"repro/internal/checkpoint"
	"repro/internal/cl"
	"repro/internal/core"
	"repro/internal/fastx"
	"repro/internal/genome"
	"repro/internal/index"
	"repro/internal/mapper"
	"repro/internal/sam"
	"repro/internal/trace"
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
	Pipeline *core.Pipeline
	Genome   *genome.Genome
	// Devices are the pipeline's devices: the environment fault plan is
	// armed on them and their fault ordinals are checkpointed.
	Devices []*cl.Device
	Opt     mapper.Options
	Cigar   bool
	Lenient bool
	// Batch is the number of reads per batch; 0 maps the whole input as
	// one batch.
	Batch     int
	ReadsPath string
	ReadsName string // names the input in parse errors
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
	Tracer trace.Tracer
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
// uninterrupted run's. On core.Stop the state is returned with the
// error.
func RunStream(ctx context.Context, s Stream) (*checkpoint.State, error) {
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
	cl.ArmEnvFaults(s.Devices)
	for _, d := range s.Devices {
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

	rf, err := os.Open(s.ReadsPath)
	if err != nil {
		return nil, err
	}
	defer rf.Close()
	if _, err := rf.Seek(st.Offset, io.SeekStart); err != nil {
		return nil, err
	}
	sc := fastx.NewScanner(rf, fastx.ScanOptions{
		Format:     fastx.FormatFASTQ,
		Lenient:    s.Lenient,
		Name:       s.ReadsName,
		Tracer:     s.Tracer,
		BaseOffset: st.Offset,
		BaseLine:   st.Line,
	})
	codec := fastx.NewCodec(0)
	codec.FastForward(st.RNGDraws)
	batch := s.Batch
	if batch == 0 {
		batch = math.MaxInt
	}
	src := core.NewScanSource(sc, codec, batch, s.Lenient, s.Opt.MaxErrors, st.Reads)

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
		for i, name := range b.Names {
			dropped, err := WriteReadAlignments(sw, s.Genome, s.Pipeline, name, b.Reads[i],
				res.Mappings[i], s.Cigar, s.Opt.MaxErrors)
			if err != nil {
				return err
			}
			st.Dropped += dropped
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
		st.FaultOrdinals = snapshotOrdinals(s.Devices)
		if err := save(); err != nil {
			return err
		}
		if s.AfterBatch != nil {
			return s.AfterBatch(st)
		}
		return nil
	}

	sr, err := s.Pipeline.MapStream(ctx, src, s.Opt, emit)
	if err != nil {
		return st, err
	}
	// Trailing lenient skips (between the last full batch and EOF) arrive
	// with the final empty batch; MapStream reports this process's total
	// scanner tallies in sr.Faults, so fold them onto the resumed baseline.
	applySkips(st, baseFaults, fastx.SkipStats{
		Records: sr.Faults.SkippedRecords,
		Reasons: sr.Faults.SkipReasons,
	})
	if err := flush(); err != nil {
		return st, err
	}
	return st, save()
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
