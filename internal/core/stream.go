package core

// Streaming ingest: MapStream runs the existing fault-tolerant Map
// machinery over a stream of fixed-size read batches, so host memory is
// O(batch) instead of O(reads) — the bounded-memory view of read mapping
// GRIM-Filter-style batch processing motivates and embedded targets
// (HiKey970-class SoCs, read sets larger than RAM) require. A producer
// goroutine parses the next batch while the devices map the current one;
// the bounded channel between them is the backpressure that keeps the
// producer from racing ahead of the mappers. DESIGN.md §11.

import (
	"context"
	"errors"

	"repro/internal/fastx"
	"repro/internal/mapper"
	"repro/internal/trace"
)

// Stop is the sentinel an emit callback returns to end a MapStream run
// cleanly at a batch boundary — the graceful-shutdown path (SIGINT after
// a final checkpoint). MapStream stops consuming, cancels the producer,
// and returns the last token it consumed together with Stop.
var Stop = errors.New("core: map stream stopped")

// StreamToken records the ingest-side state at the moment a batch was
// cut from the input. It is everything a checkpoint needs to reopen the
// input and continue producing bit-identical batches: the byte offset of
// the first unconsumed record, the line number (for error messages that
// stay correct across a resume), the cumulative ambiguous-base draw
// count (fastx.Codec), and the cumulative lenient-parse skip tallies.
type StreamToken struct {
	Offset   int64
	Line     int
	RNGDraws uint64
	Skipped  fastx.SkipStats
}

// StreamBatch is one unit of streamed mapping work.
type StreamBatch struct {
	// Index is the 0-based batch ordinal within this MapStream call.
	Index int
	// Start is the global read index of the batch's first read (offset
	// by the resume point when continuing a checkpointed run).
	Start int
	// Names are the read names, parallel to Reads (SAM output needs them).
	Names []string
	// Reads are the base-code sequences to map.
	Reads [][]byte
	// Token is the ingest state captured when the batch was cut.
	Token StreamToken
	// Mate2 is the mate-2 file's ingest state in a paired stream, whose
	// batches hold each fragment as two adjacent reads; zero otherwise.
	Mate2 StreamToken
}

// streamAhead bounds how many parsed batches may wait for the mappers;
// with capacity 1 the producer parses exactly one batch ahead.
const streamAhead = 1

// MapStream consumes batches from src until src returns an empty batch
// or an error, mapping each through Map and handing the batch plus its
// per-batch result to emit, in input order. src runs in its own
// goroutine, at most streamAhead batches ahead of the mappers. MapStream
// keeps no cross-batch aggregate: emit tallies what it needs. It returns
// the token of the last batch it consumed, so after a clean end the final
// empty batch's token carries the skip totals of records dropped after
// the last mapped batch.
//
// ctx bounds the whole run: when it is cancelled (a per-job deadline, a
// caller tearing the stream down mid-Map), MapStream stops before the
// next batch and returns ctx.Err() with the last token consumed. The
// producer goroutine is cancelled on every exit path — emit errors and
// context cancellation included — never left blocked on the batch
// channel; TestMapStreamProducerExits pins this with goroutine-count
// assertions under -race.
//
// emit is called after the batch's mappings are complete; returning an
// error stops the run (the sentinel Stop marks a deliberate graceful
// stop and is returned as-is). emit may be nil when only the final
// token matters.
//
// Because each batch runs through the same Map call an in-memory run
// would use — same kernels, same fault recovery, same trace timeline via
// the pipeline's trace origin — a streamed run's mappings, metrics and
// simulated totals are bit-identical to mapping the same batches from
// memory (asserted by the equivalence harness's batching axis).
func (p *Pipeline) MapStream(ctx context.Context, src func() (StreamBatch, error), opt mapper.Options, emit func(StreamBatch, *mapper.Result) error) (StreamToken, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	type produced struct {
		b   StreamBatch
		err error
	}
	ch := make(chan produced, streamAhead)
	done := make(chan struct{})
	defer close(done)
	go func() {
		defer close(ch)
		for {
			b, err := src()
			select {
			case ch <- produced{b, err}:
			case <-done:
				return
			case <-ctx.Done():
				return
			}
			if err != nil || len(b.Reads) == 0 {
				return
			}
			// A parsed batch may have been handed over at the same moment
			// cancellation landed (select picks ready cases at random);
			// re-checking here keeps the producer from parsing ahead of a
			// consumer that will never drain the channel.
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			default:
			}
		}
	}()

	var last StreamToken
	for pr := range ch {
		if err := ctx.Err(); err != nil {
			return last, err
		}
		if pr.err != nil {
			return last, pr.err
		}
		b := pr.b
		last = b.Token
		if len(b.Reads) == 0 {
			break
		}
		res, err := p.Map(b.Reads, opt)
		if err != nil {
			return last, err
		}
		p.instant("host", "stream-batch", func() []trace.Attr {
			return []trace.Attr{trace.I64("batch", int64(b.Index)),
				trace.I64("start", int64(b.Start)), trace.I64("reads", int64(len(b.Reads)))}
		})
		if emit != nil {
			if err := emit(b, res); err != nil {
				return last, err
			}
		}
	}
	// The producer exits (closing ch) on cancellation as well as on EOF;
	// a run that ended because ctx fired must report the cancellation even
	// when the consumer never saw another batch.
	return last, ctx.Err()
}

// NewScanSource adapts a fastx.Scanner plus Codec into a MapStream
// source cutting batches of batchSize reads. startRead seats the batches
// on the global read axis (the resume point of a checkpointed run). In
// lenient mode, records that parse but are too short to map — length at
// most maxErrors, which ValidateReads would reject — are skipped and
// tallied as short-read; in strict mode they flow through and fail the
// run the way an in-memory load would.
func NewScanSource(sc *fastx.Scanner, codec *fastx.Codec, batchSize int, lenient bool, maxErrors, startRead int) func() (StreamBatch, error) {
	index, next := 0, startRead
	return func() (StreamBatch, error) {
		b := StreamBatch{Index: index, Start: next}
		for len(b.Reads) < batchSize && sc.Scan() {
			rec := sc.Record()
			codes := codec.Codes(rec)
			if lenient && len(codes) <= maxErrors {
				sc.CountSkip(fastx.ReasonShortRead)
				continue
			}
			b.Names = append(b.Names, rec.Name)
			b.Reads = append(b.Reads, codes)
		}
		if err := sc.Err(); err != nil {
			return b, err
		}
		b.Token = StreamToken{
			Offset:   sc.Offset(),
			Line:     sc.Line(),
			RNGDraws: codec.Draws(),
			Skipped:  sc.Skipped(),
		}
		index++
		next += len(b.Reads)
		return b, nil
	}
}
