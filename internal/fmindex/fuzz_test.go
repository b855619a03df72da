package fmindex

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
)

// fuzzSeedBlobs serializes a few small indexes spanning both locate modes
// so the fuzzer starts from structurally valid inputs and mutates inward.
func fuzzSeedBlobs(tb testing.TB) [][]byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(42))
	var blobs [][]byte
	for _, cfg := range []struct {
		n, rate int
	}{
		{4, 0}, {61, 0}, {200, 0}, {61, 4}, {200, 8}, {513, 32},
	} {
		text := make([]byte, cfg.n)
		for i := range text {
			text[i] = byte(rng.Intn(4))
		}
		ix := Build(text, Options{SASampleRate: cfg.rate})
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			tb.Fatalf("serializing seed index: %v", err)
		}
		blobs = append(blobs, buf.Bytes())
	}
	return blobs
}

// FuzzIndexReadFrom feeds arbitrary bytes to ReadFrom. The properties: no
// panic and no huge allocation regardless of input; every data-shaped
// failure wraps ErrCorrupt (never a bare success on garbage); and any
// input that does parse must re-serialize to exactly the bytes consumed —
// i.e. accepted inputs are precisely the image of WriteTo — and must rank
// like a byte-at-a-time scan of its own BWT section, whatever placeholder
// and padding bits the mutation left there.
func FuzzIndexReadFrom(f *testing.F) {
	for _, blob := range fuzzSeedBlobs(f) {
		f.Add(blob)
	}
	// A few handcrafted corruptions of interest: truncation, huge length
	// field, zeroed header.
	blob := fuzzSeedBlobs(f)[1]
	f.Add(blob[:len(blob)/2])
	huge := bytes.Clone(blob)
	for i := 8; i < 16; i++ {
		huge[i] = 0xff
	}
	f.Add(huge)
	f.Add(make([]byte, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := &countingReader{r: bytes.NewReader(data)}
		ix, err := ReadFrom(r)
		if err != nil {
			if ix != nil {
				t.Fatalf("ReadFrom returned both an index and error %v", err)
			}
			// I/O-shaped errors come from truncation; anything else must
			// carry the typed corruption sentinel.
			if !errors.Is(err, ErrCorrupt) &&
				!errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("ReadFrom error is neither ErrCorrupt nor EOF: %v", err)
			}
			return
		}
		// Success: the index must be internally consistent and round-trip
		// to exactly the consumed prefix.
		if err := ix.validate(); err != nil {
			t.Fatalf("accepted index fails validate: %v", err)
		}
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatalf("re-serializing accepted index: %v", err)
		}
		if int64(buf.Len()) > r.n {
			t.Fatalf("re-serialization is %d bytes but only %d were available", buf.Len(), r.n)
		}
		if !bytes.Equal(buf.Bytes(), data[:buf.Len()]) {
			t.Fatalf("accepted index does not round-trip to its input prefix")
		}
		checkOccAt(t, ix, bwtCodes(ix))
	})
}

// countingReader tracks the number of bytes handed out, bounding what the
// round-trip property may compare against.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
