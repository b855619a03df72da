package main

// The in-process stream loop: the same exported calls cmd/repute's
// stream.go and the serve runner make — fastx.Scanner → core.MapStream →
// serve.WriteReadAlignments → sam.Writer.Flush → checkpoint.Save — driven
// from here so they can be wrapped in spans. Its SAM is the reference the
// binary's and the service's output must equal byte for byte, which is
// also what shows the spans time the same computation.

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cl"
	"repro/internal/core"
	"repro/internal/fastx"
	"repro/internal/mapper"
	"repro/internal/sam"
	"repro/internal/serve"
)

// streamStats is what a stream loop run counted.
type streamStats struct {
	reads, records int
	samBytes       int64
	// firstBatch keeps the first batch and its mappings for the SAM
	// allocation probe.
	firstBatch core.StreamBatch
	firstRes   *mapper.Result
}

// streamReference maps the FASTQ file through the stream loop on a fresh
// single-device pipeline (the CLI default and a serve job's partition)
// and returns the SAM text. With a recorder it records fastx.scan,
// core.map, sam.write and checkpoint.save spans; scanning runs on
// MapStream's producer goroutine, so those spans are collected apart and
// joined at the end.
func (e *env) streamReference(w *workload, t *target, fastqPath string, nReads int, rec *recorder) ([]byte, *streamStats, error) {
	p, err := newPipeline(t.file, w, 1, cl.Auto)
	if err != nil {
		return nil, nil, err
	}
	samPath := filepath.Join(e.dir, "reference.sam")
	ckptPath := filepath.Join(e.dir, "reference.ckpt")
	refs := make([]sam.RefSeq, len(t.g.Contigs()))
	for i, c := range t.g.Contigs() {
		refs[i] = sam.RefSeq{Name: c.Name, Length: c.Length}
	}
	out, err := os.Create(samPath)
	if err != nil {
		return nil, nil, err
	}
	defer out.Close()
	sw, err := sam.NewMultiWriter(out, refs)
	if err != nil {
		return nil, nil, err
	}
	rf, err := os.Open(fastqPath)
	if err != nil {
		return nil, nil, err
	}
	defer rf.Close()
	sc := fastx.NewScanner(rf, fastx.ScanOptions{Format: fastx.FormatFASTQ, Name: fastqPath})
	src := core.NewScanSource(sc, fastx.NewCodec(0), w.streamBatch, false, w.opt.MaxErrors, 0)

	// Batch identifiers count on from the recorder's last one, in step on
	// both goroutines, so a batch's scan span shares its identifier.
	var scanRec *recorder
	// scanned carries each batch's hand-over time from the producer to
	// emit; one send per src call: every batch plus the final empty one.
	scanned := make(chan time.Time, nReads/w.streamBatch+2)
	if rec != nil {
		scanRec = newRecorder()
		scanRec.batch = rec.batch
		plain := src
		src = func() (core.StreamBatch, error) {
			scanRec.batch++
			scanRec.begin("fastx.scan")
			b, err := plain()
			scanRec.end()
			scanned <- time.Now()
			return b, err
		}
	}

	st := &checkpoint.State{
		Version:       checkpoint.Version,
		Fingerprint:   checkpoint.FingerprintDigest(t.file.Digest(), w.opt),
		BatchSize:     w.streamBatch,
		DeviceSeconds: map[string]float64{},
	}
	stats := &streamStats{}
	lastEmit := time.Now()
	emit := func(b core.StreamBatch, res *mapper.Result) error {
		if rec != nil {
			// Map ran from the later of "batch handed over" and "previous
			// emit returned" until now.
			now, start := time.Now(), <-scanned
			if start.Before(lastEmit) {
				start = lastEmit
			}
			rec.batch++
			rec.add("core.map", start, now, -1)
		}
		if stats.firstRes == nil {
			stats.firstBatch, stats.firstRes = b, res
		}
		rec.begin("sam.write")
		for i, name := range b.Names {
			dropped, err := serve.WriteReadAlignments(sw, t.g, p, name, b.Reads[i], res.Mappings[i], false, w.opt.MaxErrors)
			if err != nil {
				return err
			}
			st.Dropped += dropped
			if n := len(res.Mappings[i]) - dropped; n > 1 {
				stats.records += n
			} else {
				stats.records++
			}
		}
		if err := sw.Flush(); err != nil {
			return err
		}
		rec.end()
		pos, err := out.Seek(0, io.SeekCurrent)
		if err != nil {
			return err
		}
		st.Batches++
		st.Reads = b.Start + len(b.Reads)
		for _, ms := range res.Mappings {
			if len(ms) > 0 {
				st.Mapped++
			}
			st.Locations += len(ms)
		}
		st.SimSeconds += res.SimSeconds
		st.EnergyJ += res.EnergyJ
		for dev, sec := range res.DeviceSeconds {
			st.DeviceSeconds[dev] += sec
		}
		st.Cost.Add(res.Cost)
		st.Offset, st.Line, st.RNGDraws = b.Token.Offset, b.Token.Line, b.Token.RNGDraws
		st.SAMBytes = pos
		rec.begin("checkpoint.save")
		err = checkpoint.Save(ckptPath, st)
		rec.end()
		lastEmit = time.Now()
		return err
	}
	if _, err := p.MapStream(context.Background(), src, w.opt, emit); err != nil {
		return nil, nil, err
	}
	rec.begin("checkpoint.save")
	err = checkpoint.Save(ckptPath, st)
	rec.end()
	if err != nil {
		return nil, nil, err
	}
	if rec != nil {
		rec.join(scanRec)
		rec.batch = scanRec.batch
	}
	stats.reads, stats.samBytes = st.Reads, st.SAMBytes
	text, err := os.ReadFile(samPath)
	return text, stats, err
}

// scanAllocs counts the heap allocations of scanning and encoding the
// whole FASTQ file, with nothing else running.
func scanAllocs(fastqPath string, batch int) (allocs uint64, reads int, err error) {
	rf, err := os.Open(fastqPath)
	if err != nil {
		return 0, 0, err
	}
	defer rf.Close()
	sc := fastx.NewScanner(rf, fastx.ScanOptions{Format: fastx.FormatFASTQ, Name: fastqPath})
	src := core.NewScanSource(sc, fastx.NewCodec(0), batch, false, 0, 0)
	m0 := mallocs()
	for {
		b, err := src()
		if err != nil {
			return 0, 0, err
		}
		if len(b.Reads) == 0 {
			break
		}
		reads += len(b.Reads)
	}
	return mallocs() - m0, reads, nil
}

// samAllocs counts the heap allocations of encoding one batch's SAM
// records into a discarded stream.
func samAllocs(w *workload, t *target, b core.StreamBatch, res *mapper.Result) (uint64, error) {
	sw := sam.NewAppendWriter(io.Discard, t.g.Contigs()[0].Name)
	m0 := mallocs()
	for i, name := range b.Names {
		// The pipeline argument only serves CIGAR recovery, which is off.
		if _, err := serve.WriteReadAlignments(sw, t.g, nil, name, b.Reads[i], res.Mappings[i], false, w.opt.MaxErrors); err != nil {
			return 0, err
		}
	}
	if err := sw.Flush(); err != nil {
		return 0, err
	}
	return mallocs() - m0, nil
}
