package index

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"runtime/metrics"
	"testing"

	"repro/internal/fmindex"
	"repro/internal/genome"
)

// FuzzLoad feeds arbitrary bytes to the RIDX container reader, starting
// from valid one- and two-shard artifacts of a ~2 kb reference. The
// properties: no panic; no allocation beyond a constant plus twice the
// input, whatever lengths the input declares; every refusal is typed —
// ErrFormat, fmindex.ErrCorrupt or a *ChecksumError; and an input Load
// accepts re-serializes to the digest it was loaded with, which ReadInfo
// reports too. The same input read as a stream of unknown length must be
// accepted or refused alike.
func FuzzLoad(f *testing.F) {
	rng := rand.New(rand.NewSource(13))
	for _, cfg := range []struct{ shards, rate int }{{1, 0}, {2, 4}} {
		seq := make([]byte, 2000)
		for i := range seq {
			seq[i] = byte(rng.Intn(4))
		}
		g, err := genome.New([]string{"chr"}, [][]byte{seq})
		if err != nil {
			f.Fatal(err)
		}
		art, err := Build(g, cfg.shards, 100, fmindex.Options{SASampleRate: cfg.rate})
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := art.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		before := heapAllocated()
		got, err := Load(bytes.NewReader(data), int64(len(data)))
		if grew := heapAllocated() - before; grew > 1<<20+2*uint64(len(data)) {
			t.Fatalf("Load allocated %d bytes for %d bytes of input", grew, len(data))
		}
		// The same bytes as a stream of unknown length are accepted or
		// refused alike (a stream that ends early may say so untyped).
		streamed, serr := Load(streamOnly{bytes.NewReader(data)}, -1)
		if (err == nil) != (serr == nil) || err == nil && streamed.Digest() != got.Digest() {
			t.Fatalf("sized Load: %v; streamed Load: %v", err, serr)
		}
		if err != nil {
			var ce *ChecksumError
			if !errors.Is(err, ErrFormat) && !errors.Is(err, fmindex.ErrCorrupt) && !errors.As(err, &ce) {
				t.Fatalf("Load error is not typed: %v", err)
			}
			return
		}
		loaded := got.Digest()
		if _, err := got.WriteTo(io.Discard); err != nil {
			t.Fatalf("re-serializing an accepted artifact: %v", err)
		}
		if got.Digest() != loaded {
			t.Fatalf("accepted artifact re-serializes to digest %x, was loaded as %x", got.Digest(), loaded)
		}
		info, err := ReadInfo(bytes.NewReader(data), int64(len(data)))
		if err != nil || info.Digest != loaded {
			t.Fatalf("ReadInfo of an accepted artifact: digest %x, error %v", info.Digest, err)
		}
	})
}

// heapAllocated is the bytes allocated so far, read without stopping the
// world (runtime.ReadMemStats does, which costs more than a Load of a
// fuzz input). It can lag by what small objects sit in per-P caches; the
// allocations the property is about are far above that.
func heapAllocated() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}
