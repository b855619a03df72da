package index

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/fmindex"
	"repro/internal/genome"
)

// bigArtifacts are serialized artifacts whose every shard section spans
// at least three chunks of the load pipeline, built once for the tests
// that need chunk boundaries: one shard of 3.6 Mbase (16 chunks, and big
// enough that the two chunk buffers are small beside it) and three
// shards of 0.7 Mbase each.
var bigArtifacts = sync.OnceValue(func() [2][]byte {
	var out [2][]byte
	for i, cfg := range []struct{ bases, shards int }{{3_600_000, 1}, {2_100_000, 3}} {
		rng := rand.New(rand.NewSource(int64(11 + i)))
		seq := make([]byte, cfg.bases)
		for j := range seq {
			seq[j] = byte(rng.Intn(4))
		}
		g, err := genome.New([]string{"chr"}, [][]byte{seq})
		if err != nil {
			panic(err)
		}
		f, err := Build(g, cfg.shards, 256, fmindex.Options{})
		if err != nil {
			panic(err)
		}
		var buf bytes.Buffer
		if _, err := f.WriteTo(&buf); err != nil {
			panic(err)
		}
		out[i] = buf.Bytes()
	}
	return out
})

// shardPayloads returns the [start, end) file offsets of every shard
// section's payload.
func shardPayloads(t *testing.T, data []byte) [][2]int {
	t.Helper()
	info, err := ReadInfo(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	var out [][2]int
	off := 12
	for i, s := range info.Sections {
		off += 4 + 8 + 32
		if i > 0 {
			out = append(out, [2]int{off, off + int(s.Length)})
		}
		off += int(s.Length)
	}
	return out
}

// streamOnly hides everything but Read, as a pipe or a socket would.
type streamOnly struct{ r io.Reader }

func (s streamOnly) Read(p []byte) (int, error) { return s.r.Read(p) }

func TestLoadBigRoundTrip(t *testing.T) {
	for _, data := range bigArtifacts() {
		for _, size := range []int64{int64(len(data)), -1} {
			f, err := Load(streamOnly{bytes.NewReader(data)}, size)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := f.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), data) {
				t.Fatalf("%d-shard artifact (size %d) does not re-serialize to the bytes it was loaded from",
					len(f.Indexes), size)
			}
		}
	}
}

// TestLoadChunkBoundaryCorruption damages every shard section at the
// places where the pipeline hands over between chunks and requires the
// typed error a whole-section reader gives: a flipped byte is the
// section's *ChecksumError wherever it sits; a file cut short is refused
// at the section header (ErrFormat) when its size is known, and is a
// checksum mismatch of the cut section when it is a stream.
func TestLoadChunkBoundaryCorruption(t *testing.T) {
	for _, clean := range bigArtifacts() {
		for si, pl := range shardPayloads(t, clean) {
			start, end := pl[0], pl[1]
			if end-start < 3*chunkSize {
				t.Fatalf("shard section %d has %d bytes, want at least 3 chunks", si, end-start)
			}
			wantChecksum := func(name string, err error) {
				t.Helper()
				var ce *ChecksumError
				if !errors.As(err, &ce) || ce.Section != 1+si {
					t.Errorf("shard %d, %s: got %v, want the ChecksumError of section %d", si, name, err, 1+si)
				}
			}
			for _, flip := range []struct {
				name string
				off  int
			}{
				{"first byte of chunk 1", start + chunkSize},
				{"last byte of chunk 1", start + 2*chunkSize - 1},
				{"last byte of the section", end - 1},
			} {
				dirty := bytes.Clone(clean)
				dirty[flip.off] ^= 0x40
				_, err := Load(bytes.NewReader(dirty), int64(len(dirty)))
				wantChecksum("flip at the "+flip.name, err)
			}
			for _, cut := range []struct {
				name string
				off  int
			}{
				{"cut at a chunk boundary", start + 2*chunkSize},
				{"cut inside a chunk", start + chunkSize + chunkSize/2},
			} {
				_, err := Load(bytes.NewReader(clean[:cut.off]), int64(cut.off))
				if !errors.Is(err, ErrFormat) {
					t.Errorf("shard %d, %s, size known: got %v, want ErrFormat", si, cut.name, err)
				}
				_, err = Load(streamOnly{bytes.NewReader(clean[:cut.off])}, -1)
				wantChecksum(cut.name+", size unknown", err)
			}
		}
	}
}

// TestLoadRejectsTrailingBytes: input that continues after the last
// section is not the artifact its digest names.
func TestLoadRejectsTrailingBytes(t *testing.T) {
	f, err := Build(testGenome(t, 3000, 8), 2, 150, fmindex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	dirty := append(bytes.Clone(buf.Bytes()), "fifteen bytes.."...)
	for _, size := range []int64{int64(len(dirty)), -1} {
		if _, err := Load(bytes.NewReader(dirty), size); !errors.Is(err, ErrFormat) {
			t.Errorf("Load, size %d: got %v, want ErrFormat", size, err)
		}
		if _, err := ReadInfo(bytes.NewReader(dirty), size); !errors.Is(err, ErrFormat) {
			t.Errorf("ReadInfo, size %d: got %v, want ErrFormat", size, err)
		}
	}
}

// TestLoadRejectsLengthPastEnd: a last section whose length field claims
// more than the input holds must not pass on the strength of a checksum
// that covers only the bytes that are there.
func TestLoadRejectsLengthPastEnd(t *testing.T) {
	f, err := Build(testGenome(t, 3000, 8), 2, 150, fmindex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	dirty := buf.Bytes()
	payloads := shardPayloads(t, dirty)
	last := payloads[len(payloads)-1]
	// The length field sits behind the kind, 40 bytes before the payload.
	binary.LittleEndian.PutUint64(dirty[last[0]-40:], uint64(last[1]-last[0]+100))
	for _, size := range []int64{int64(len(dirty)), -1} {
		if _, err := Load(streamOnly{bytes.NewReader(dirty)}, size); !errors.Is(err, ErrFormat) {
			t.Errorf("size %d: got %v, want ErrFormat", size, err)
		}
	}
}

// TestLoadAllocBudget pins the staging copy out: everything one Load
// allocates — the index itself, the packed BWT and checkpoints it is
// interleaved from, the two chunk buffers — stays within a quarter over
// the loaded index's own size.
func TestLoadAllocBudget(t *testing.T) {
	data := bigArtifacts()[0]
	r := bytes.NewReader(data)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f, err := Load(r, int64(len(data)))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	size := int64(0)
	for _, ix := range f.Indexes {
		size += ix.SizeBytes()
	}
	if got := int64(after.TotalAlloc - before.TotalAlloc); got > size*5/4 {
		t.Errorf("Load allocated %d bytes for an index of %d (%.2fx), want at most 1.25x",
			got, size, float64(got)/float64(size))
	}
}

// TestFailedLoadLeavesNoGoroutine: the hasher is joined on every way out
// of Load, so refusing a hundred damaged files leaves as many goroutines
// as there were.
func TestFailedLoadLeavesNoGoroutine(t *testing.T) {
	f, err := Build(testGenome(t, 3000, 9), 3, 150, fmindex.Options{SASampleRate: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	before := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 100; i++ {
		dirty := bytes.Clone(clean)
		size := int64(len(dirty))
		switch i % 3 {
		case 0:
			dirty[rng.Intn(len(dirty))] ^= 1 << rng.Intn(8)
		case 1:
			dirty, size = dirty[:rng.Intn(len(dirty))], -1
		case 2:
			dirty = dirty[:rng.Intn(len(dirty))]
			size = int64(len(dirty))
		}
		if _, err := Load(bytes.NewReader(dirty), size); err == nil {
			t.Fatalf("damaged artifact %d loaded", i)
		}
	}
	// finish returns when the hasher has closed its channel, which is its
	// last statement; give the last one a moment to be gone as well.
	after := runtime.NumGoroutine()
	for i := 0; after > before && i < 1000; i++ {
		runtime.Gosched()
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Errorf("%d goroutines before 100 failed loads, %d after", before, after)
	}
}

// TestPayloadReaderStraddle reads a payload through Peek and Discard in
// pieces that fall across chunk boundaries every way they can, and
// requires the bytes, the digest and the end of the payload to come out
// right with the input continuing behind it.
func TestPayloadReaderStraddle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	data := make([]byte, 3*chunkSize+12345)
	rng.Read(data)
	for _, length := range []int{0, 1, chunkSize - 1, chunkSize, chunkSize + 7, 3*chunkSize + 5} {
		sr := &sectionReader{r: bytes.NewReader(data), limit: -1}
		p := sr.payload(int64(length))
		var got []byte
		for len(got) < length {
			n := 1 + rng.Intn(8)
			if rng.Intn(4) == 0 { // a bulk window, as the section decoders take
				if _, err := p.Peek(1); err != nil {
					t.Fatal(err)
				}
				n = p.Buffered()
			}
			n = min(n, length-len(got))
			b, err := p.Peek(n)
			if err != nil {
				t.Fatalf("length %d: Peek(%d) after %d bytes: %v", length, n, len(got), err)
			}
			got = append(got, b...)
			p.Discard(n)
		}
		if b, err := p.Peek(1); err != io.EOF || len(b) != 0 {
			t.Errorf("length %d: Peek past the payload gave %d bytes, %v", length, len(b), err)
		}
		sum, err := p.finish()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data[:length]) || sum != sha256.Sum256(data[:length]) {
			t.Errorf("length %d: payload or digest differs from the input", length)
		}
	}
}
