package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cl"
	"repro/internal/fastx"
	"repro/internal/mapper"
	"repro/internal/simulate"
	"repro/internal/trace"
)

// sliceSource adapts an in-memory read set into a MapStream source.
func sliceSource(reads [][]byte, batch int) func() (StreamBatch, error) {
	i, idx := 0, 0
	return func() (StreamBatch, error) {
		b := StreamBatch{Index: idx, Start: i}
		for len(b.Reads) < batch && i < len(reads) {
			b.Names = append(b.Names, fmt.Sprintf("r%d", i))
			b.Reads = append(b.Reads, reads[i])
			i++
		}
		idx++
		return b, nil
	}
}

// TestMapStreamStop checks the graceful-stop contract: emit returning
// Stop ends the run at that batch boundary, mapping no further batch, and
// returns the sentinel itself.
func TestMapStreamStop(t *testing.T) {
	ref, set := testWorld(t, 20_000, 30, simulate.ERR012100)
	p, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	opt := mapper.Options{MaxErrors: 4, MaxLocations: 50}
	batches, reads := 0, 0
	_, err = p.MapStream(context.Background(), sliceSource(set.Reads, 10), opt,
		func(b StreamBatch, res *mapper.Result) error {
			batches++
			reads += len(res.Mappings)
			if batches == 2 {
				return Stop
			}
			return nil
		})
	if err != Stop {
		t.Fatalf("err = %v, want Stop", err)
	}
	if batches != 2 || reads != 20 {
		t.Errorf("emitted %d batches / %d reads, want 2 / 20", batches, reads)
	}
}

// TestMapStreamScanSourceLenient runs a dirty FASTQ through the full
// scanner → codec → MapStream path and checks that skipped records (both
// malformed and unmappably short) land in the skip totals of the token
// MapStream returns and in the metrics registry.
func TestMapStreamScanSourceLenient(t *testing.T) {
	ref, set := testWorld(t, 20_000, 24, simulate.ERR012100)
	var fq strings.Builder
	for i, r := range set.Reads {
		seq := make([]byte, len(r))
		for j, c := range r {
			seq[j] = "ACGT"[c]
		}
		fmt.Fprintf(&fq, "@r%d\n%s\n+\n%s\n", i, seq, strings.Repeat("I", len(seq)))
		switch i {
		case 5: // malformed: quality shorter than sequence
			fmt.Fprintf(&fq, "@bad%d\nACGTACGT\n+\nIII\n", i)
		case 11: // unmappably short read (length <= MaxErrors)
			fmt.Fprintf(&fq, "@tiny%d\nACG\n+\nIII\n", i)
		case 17: // junk line between records
			fq.WriteString("not a record\n")
		}
	}

	rec := trace.NewRecorder()
	p, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	opt := mapper.Options{MaxErrors: 4, MaxLocations: 50}
	sc := fastx.NewScanner(strings.NewReader(fq.String()),
		fastx.ScanOptions{Format: fastx.FormatFASTQ, Lenient: true, Name: "dirty.fq", Tracer: rec})
	src := NewScanSource(sc, fastx.NewCodec(0), 7, true, opt.MaxErrors, 0)

	reads := 0
	last, err := p.MapStream(context.Background(), src, opt,
		func(b StreamBatch, res *mapper.Result) error {
			reads += len(b.Reads)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if reads != len(set.Reads) {
		t.Errorf("mapped %d reads, want %d", reads, len(set.Reads))
	}
	if last.Skipped.Records != 3 {
		t.Errorf("skipped records = %d, want 3 (%v)", last.Skipped.Records, last.Skipped.Reasons)
	}
	want := map[string]int{
		fastx.ReasonLengthMismatch: 1,
		fastx.ReasonShortRead:      1,
		fastx.ReasonMissingHeader:  1,
	}
	if !reflect.DeepEqual(last.Skipped.Reasons, want) {
		t.Errorf("skip reasons = %v, want %v", last.Skipped.Reasons, want)
	}
	snap := rec.Metrics()
	if got := snap.Counters["records_skipped_total"]; got != 3 {
		t.Errorf("records_skipped_total = %d, want 3", got)
	}
	if got := snap.Counters["records_skipped_total/"+fastx.ReasonShortRead]; got != 1 {
		t.Errorf("records_skipped_total/short-read = %d, want 1", got)
	}
}

// TestMapStreamSourceError propagates a scanner parse failure (strict
// mode) out of MapStream.
func TestMapStreamSourceError(t *testing.T) {
	ref, _ := testWorld(t, 10_000, 1, simulate.ERR012100)
	p, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sc := fastx.NewScanner(strings.NewReader("@r\nACGT\n+\nIII\n"),
		fastx.ScanOptions{Format: fastx.FormatFASTQ})
	src := NewScanSource(sc, fastx.NewCodec(0), 4, false, 1, 0)
	_, err = p.MapStream(context.Background(), src, mapper.Options{MaxErrors: 1}, nil)
	if err == nil || !strings.Contains(err.Error(), "length-mismatch") {
		t.Errorf("want length-mismatch parse error, got %v", err)
	}
}

// countStreamGoroutines waits (tolerating scheduler lag) for every
// MapStream producer goroutine to exit, and returns how many remain.
// Counting producers by stack frame rather than comparing raw
// runtime.NumGoroutine keeps the assertion immune to unrelated runtime
// or test-harness goroutines starting lazily mid-test.
func countStreamGoroutines() int {
	producers := func() int {
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		return strings.Count(stacks, ").MapStream.func")
	}
	deadline := time.Now().Add(5 * time.Second)
	n := producers()
	for n > 0 && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
		n = producers()
	}
	return n
}

// TestMapStreamProducerExits is the producer-goroutine lifecycle
// regression test: on every early exit path — an emit callback failing
// mid-run, a context cancelled while batches are still queued — the
// producer goroutine must terminate rather than stay blocked on the
// capacity-1 batch channel. CI runs this under -race.
func TestMapStreamProducerExits(t *testing.T) {
	ref, set := testWorld(t, 20_000, 40, simulate.ERR012100)
	p, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	opt := mapper.Options{MaxErrors: 4, MaxLocations: 50}

	t.Run("emit error", func(t *testing.T) {
		boom := errors.New("emit failed")
		for i := 0; i < 10; i++ {
			_, err := p.MapStream(context.Background(), sliceSource(set.Reads, 5), opt,
				func(b StreamBatch, res *mapper.Result) error { return boom })
			if err != boom {
				t.Fatalf("err = %v, want emit error", err)
			}
		}
		if n := countStreamGoroutines(); n > 0 {
			t.Errorf("%d producer goroutine(s) alive after emit-error exits", n)
		}
	})

	t.Run("context cancelled", func(t *testing.T) {
		for i := 0; i < 10; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			_, err := p.MapStream(ctx, sliceSource(set.Reads, 5), opt,
				func(b StreamBatch, res *mapper.Result) error {
					cancel()
					return nil
				})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		}
		if n := countStreamGoroutines(); n > 0 {
			t.Errorf("%d producer goroutine(s) alive after cancelled runs", n)
		}
	})

	t.Run("pre-cancelled context", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		batches := 0
		_, err := p.MapStream(ctx, sliceSource(set.Reads, 5), opt,
			func(b StreamBatch, res *mapper.Result) error {
				batches++
				return nil
			})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if batches != 0 {
			t.Errorf("pre-cancelled run mapped %d batches, want 0", batches)
		}
		if n := countStreamGoroutines(); n > 0 {
			t.Errorf("%d producer goroutine(s) alive after pre-cancelled run", n)
		}
	})
}
