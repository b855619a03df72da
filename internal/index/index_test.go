package index

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fmindex"
	"repro/internal/genome"
)

func testGenome(t *testing.T, n int, seed int64) *genome.Genome {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	mk := func(l int) []byte {
		s := make([]byte, l)
		for i := range s {
			s[i] = byte(rng.Intn(4))
		}
		return s
	}
	g, err := genome.New(
		[]string{"chrA", "chrB"},
		[][]byte{mk(n * 2 / 3), mk(n - n*2/3)},
	)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPartitionTilesAndOverlaps(t *testing.T) {
	for _, tc := range []struct {
		n       int64
		k, over int
	}{
		{100, 1, 0}, {100, 3, 10}, {101, 4, 7}, {7, 7, 3}, {1 << 20, 5, 1024},
	} {
		geom := Partition(tc.n, tc.k, tc.over)
		if len(geom) != tc.k {
			t.Fatalf("Partition(%d,%d): %d shards", tc.n, tc.k, len(geom))
		}
		prev := int64(0)
		for i, s := range geom {
			if s.OwnStart != prev {
				t.Fatalf("shard %d owns from %d, want %d", i, s.OwnStart, prev)
			}
			if s.OwnEnd <= s.OwnStart {
				t.Fatalf("shard %d owns empty range", i)
			}
			if s.SliceStart > s.OwnStart || s.SliceEnd < s.OwnEnd {
				t.Fatalf("shard %d slice %v does not cover ownership", i, s)
			}
			if s.SliceStart < 0 || s.SliceEnd > tc.n {
				t.Fatalf("shard %d slice %v outside text", i, s)
			}
			wantS0 := s.OwnStart - int64(tc.over)
			if wantS0 < 0 {
				wantS0 = 0
			}
			if s.SliceStart != wantS0 {
				t.Fatalf("shard %d slice start %d, want %d", i, s.SliceStart, wantS0)
			}
			prev = s.OwnEnd
		}
		if prev != tc.n {
			t.Fatalf("shards own %d of %d", prev, tc.n)
		}
	}
}

func TestRoundTripSingle(t *testing.T) {
	g := testGenome(t, 4000, 1)
	f, err := Build(g, 1, 0, fmindex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest() != f.Digest() {
		t.Fatalf("digest mismatch after round trip")
	}
	if len(got.Indexes) != 1 || got.Indexes[0].Len() != g.Len() {
		t.Fatalf("loaded wrong index shape")
	}
	if got.Meta.Sharded() {
		t.Fatalf("single-shard artifact reports sharded")
	}
	if !bytes.Equal(got.Indexes[0].Text().Unpack(), g.Text()) {
		t.Fatalf("loaded index text differs")
	}
	// The loaded index must answer queries identically.
	text := g.Text()
	for i := 0; i+20 < len(text); i += 997 {
		p := text[i : i+20]
		if got.Indexes[0].Count(p) != f.Indexes[0].Count(p) {
			t.Fatalf("count mismatch at %d", i)
		}
	}
}

func TestRoundTripSharded(t *testing.T) {
	g := testGenome(t, 6000, 2)
	f, err := Build(g, 3, 200, fmindex.Options{SASampleRate: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Meta.Sharded() || len(got.Indexes) != 3 {
		t.Fatalf("loaded %d shards, want 3", len(got.Indexes))
	}
	if got.Meta.Overlap != 200 || got.Meta.SASampleRate != 4 {
		t.Fatalf("meta options not preserved: %+v", got.Meta)
	}
	text := g.Text()
	for i, s := range got.Meta.Shards {
		slice := text[s.SliceStart:s.SliceEnd]
		if got.Indexes[i].Len() != len(slice) {
			t.Fatalf("shard %d length %d, want %d", i, got.Indexes[i].Len(), len(slice))
		}
		// Spot-check: a pattern from the slice is found there.
		p := slice[len(slice)/2 : len(slice)/2+15]
		if got.Indexes[i].Count(p) == 0 {
			t.Fatalf("shard %d cannot find its own substring", i)
		}
	}
}

// TestDigestGolden pins the artifact digest — the index fingerprint in
// every checkpoint — to the values recorded before rank moved to
// interleaved blocks: a checkpoint taken by an older build must resume.
func TestDigestGolden(t *testing.T) {
	for _, tc := range []struct {
		shards, rate, size int
		digest             string
	}{
		{1, 0, 14302, "a205aaa1ac508da2bbcadf0f2eaadd653762541bc7a880ce6d731106072db298"},
		{3, 8, 4968, "d0610c445901d8125439c7195d1dac8395f0ee6bf36a5e3cf0f921fc235fd7e1"},
	} {
		f, err := Build(testGenome(t, 3000, 7), tc.shards, 64, fmindex.Options{SASampleRate: tc.rate})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := f.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", f.Digest()); buf.Len() != tc.size || got != tc.digest {
			t.Errorf("%d shard(s), rate %d: %d bytes, digest %s; want %d bytes, %s",
				tc.shards, tc.rate, buf.Len(), got, tc.size, tc.digest)
		}
	}
}

func TestInfoMatchesLoad(t *testing.T) {
	g := testGenome(t, 3000, 3)
	f, err := Build(g, 2, 150, fmindex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	info, err := ReadInfo(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if info.Digest != f.Digest() {
		t.Fatalf("info digest %x != writer digest %x", info.Digest, f.Digest())
	}
	if info.TotalBytes != int64(buf.Len()) {
		t.Fatalf("info computes %d total bytes, file has %d", info.TotalBytes, buf.Len())
	}
	if len(info.Sections) != 3 {
		t.Fatalf("info lists %d sections, want 3", len(info.Sections))
	}
	if len(info.Meta.Shards) != 2 || info.Meta.RefBases != int64(g.Len()) {
		t.Fatalf("info meta wrong: %+v", info.Meta)
	}
}

func TestCorruptByteDetected(t *testing.T) {
	g := testGenome(t, 2500, 4)
	f, err := Build(g, 2, 150, fmindex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	// Flip one byte at several offsets through the file; every corruption
	// must surface as a typed error (checksum, format, or fmindex parse
	// rejection) — never a silent success.
	for off := 13; off < len(clean); off += len(clean) / 41 {
		dirty := bytes.Clone(clean)
		dirty[off] ^= 0x20
		_, err := Load(bytes.NewReader(dirty), int64(len(dirty)))
		if err == nil {
			t.Fatalf("corruption at offset %d loaded successfully", off)
		}
	}
	// A payload-byte flip specifically must be reported as ChecksumError
	// when the FM-index still parses, or as a wrapped parse error; flip a
	// byte deep in the last section's payload (text bytes rarely affect
	// structure) and check the typed path.
	dirty := bytes.Clone(clean)
	dirty[len(dirty)-5] ^= 0x01
	_, err = Load(bytes.NewReader(dirty), int64(len(dirty)))
	var ce *ChecksumError
	if !errors.As(err, &ce) && !errors.Is(err, fmindex.ErrCorrupt) {
		t.Fatalf("payload corruption gave untyped error: %v", err)
	}
}

func TestTruncationRejected(t *testing.T) {
	g := testGenome(t, 2000, 5)
	f, err := Build(g, 1, 0, fmindex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for _, cut := range []int{0, 3, 11, 50, len(whole) / 2, len(whole) - 1} {
		if _, err := Load(bytes.NewReader(whole[:cut]), int64(cut)); err == nil {
			t.Fatalf("truncation to %d bytes loaded successfully", cut)
		}
	}
	// A section length pointing past EOF must be rejected before any
	// large allocation (the size bound catches it at the header).
	dirty := bytes.Clone(whole)
	// Section table starts at byte 12; meta section length field is at 16.
	for i := 0; i < 8; i++ {
		dirty[16+i] = 0xff
	}
	if _, err := Load(bytes.NewReader(dirty), int64(len(dirty))); err == nil {
		t.Fatalf("absurd section length loaded successfully")
	}
}

func TestSaveLoadFile(t *testing.T) {
	g := testGenome(t, 1500, 6)
	f, err := Build(g, 2, 120, fmindex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/ref.ridx"
	if err := Save(path, f); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest() != f.Digest() {
		t.Fatalf("digest mismatch via file round trip")
	}
	info, err := ReadInfoFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Digest != f.Digest() {
		t.Fatalf("info digest mismatch via file round trip")
	}
}

func TestBuildRejectsTooManyShards(t *testing.T) {
	g := testGenome(t, 100, 7)
	if _, err := Build(g, 200, 10, fmindex.Options{}); err == nil {
		t.Fatalf("200 shards over 100 bases accepted")
	}
}
