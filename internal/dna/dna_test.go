package dna

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCodeRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		ascii byte
		code  byte
	}{{'A', A}, {'C', C}, {'G', G}, {'T', T}, {'a', A}, {'c', C}, {'g', G}, {'t', T}} {
		got, ok := CodeOf(tc.ascii)
		if !ok || got != tc.code {
			t.Errorf("CodeOf(%q) = %d,%v want %d,true", tc.ascii, got, ok, tc.code)
		}
	}
	for _, bad := range []byte{'N', 'n', 'X', '-', 0, ' '} {
		if _, ok := CodeOf(bad); ok {
			t.Errorf("CodeOf(%q) accepted invalid base", bad)
		}
	}
}

func TestASCIIOf(t *testing.T) {
	want := "ACGT"
	for c := byte(0); c < Alphabet; c++ {
		if ASCIIOf(c) != want[c] {
			t.Errorf("ASCIIOf(%d) = %c want %c", c, ASCIIOf(c), want[c])
		}
	}
}

func TestEncodeDecode(t *testing.T) {
	s := "ACGTTGCAacgt"
	codes, err := Encode([]byte(s))
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if got, want := Decode(codes), "ACGTTGCAACGT"; got != want {
		t.Errorf("Decode(Encode(%q)) = %q want %q", s, got, want)
	}
}

func TestEncodeInvalid(t *testing.T) {
	if _, err := Encode([]byte("ACGNT")); err == nil {
		t.Error("Encode accepted N")
	}
}

func TestComplement(t *testing.T) {
	pairs := [][2]byte{{A, T}, {C, G}, {G, C}, {T, A}}
	for _, p := range pairs {
		if Complement(p[0]) != p[1] {
			t.Errorf("Complement(%d) = %d want %d", p[0], Complement(p[0]), p[1])
		}
	}
}

func TestReverseComplement(t *testing.T) {
	in := MustEncode("AACGT")
	want := "ACGTT"
	if got := Decode(ReverseComplement(in)); got != want {
		t.Errorf("ReverseComplement(AACGT) = %q want %q", got, want)
	}
}

func TestReverseComplementInvolution(t *testing.T) {
	f := func(raw []byte) bool {
		codes := make([]byte, len(raw))
		for i, b := range raw {
			codes[i] = b & 3
		}
		rc := ReverseComplement(codes)
		rcrc := ReverseComplement(rc)
		if len(rcrc) != len(codes) {
			return false
		}
		for i := range codes {
			if codes[i] != rcrc[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReverseComplementInto(t *testing.T) {
	src := MustEncode("ACGTA")
	dst := make([]byte, len(src))
	ReverseComplementInto(dst, src)
	if got := Decode(dst); got != "TACGT" {
		t.Errorf("ReverseComplementInto = %q want TACGT", got)
	}
	// Must agree with the allocating variant on random input.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		s := make([]byte, n)
		for i := range s {
			s[i] = byte(rng.Intn(4))
		}
		d := make([]byte, n)
		ReverseComplementInto(d, s)
		want := ReverseComplement(s)
		for i := range d {
			if d[i] != want[i] {
				t.Fatalf("trial %d: mismatch at %d", trial, i)
			}
		}
	}
}

func TestReverseComplementIntoLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	ReverseComplementInto(make([]byte, 2), make([]byte, 3))
}

func TestPackUnpackRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		codes := make([]byte, len(raw))
		for i, b := range raw {
			codes[i] = b & 3
		}
		p := Pack(codes)
		if p.Len() != len(codes) {
			return false
		}
		got := p.Unpack()
		for i := range codes {
			if got[i] != codes[i] || p.At(i) != codes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPackedSlice(t *testing.T) {
	codes := MustEncode("ACGTACGTACGT")
	p := Pack(codes)
	if got := Decode(p.Slice(2, 7)); got != "GTACG" {
		t.Errorf("Slice(2,7) = %q want GTACG", got)
	}
	if got := Decode(p.Slice(0, 0)); got != "" {
		t.Errorf("Slice(0,0) = %q want empty", got)
	}
	buf := make([]byte, 12)
	if got := Decode(p.SliceInto(buf, 4, 9)); got != "ACGTA" {
		t.Errorf("SliceInto(4,9) = %q want ACGTA", got)
	}
}

// TestSliceIntoMatchesAt checks the byte-at-a-time unpacking against At
// for every alignment of both ends within a packed byte, for empty and
// full ranges, and that it stays allocation-free.
func TestSliceIntoMatchesAt(t *testing.T) {
	codes := make([]byte, 43)
	for i := range codes {
		codes[i] = byte(i*7+i/3) & 3
	}
	p := Pack(codes)
	buf := make([]byte, len(codes))
	for lo := 0; lo <= len(codes); lo++ {
		for hi := lo; hi <= len(codes); hi++ {
			got := p.SliceInto(buf, lo, hi)
			if len(got) != hi-lo {
				t.Fatalf("SliceInto(%d,%d) has %d bases", lo, hi, len(got))
			}
			for i, c := range got {
				if c != p.At(lo+i) {
					t.Fatalf("SliceInto(%d,%d)[%d] = %d, At(%d) = %d", lo, hi, i, c, lo+i, p.At(lo+i))
				}
			}
		}
	}
	if got := p.Unpack(); !bytes.Equal(got, codes) {
		t.Errorf("Unpack = %v want %v", got, codes)
	}
	if n := testing.AllocsPerRun(20, func() { p.SliceInto(buf, 3, 40) }); n != 0 {
		t.Errorf("SliceInto allocates %v times per run", n)
	}
}

func TestPackedSliceOutOfRange(t *testing.T) {
	p := Pack(MustEncode("ACGT"))
	for _, rng := range [][2]int{{-1, 2}, {0, 5}, {3, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Slice(%d,%d) did not panic", rng[0], rng[1])
				}
			}()
			p.Slice(rng[0], rng[1])
		}()
	}
}

func TestGCContent(t *testing.T) {
	if gc := GCContent(nil); gc != 0 {
		t.Errorf("GCContent(nil) = %v want 0", gc)
	}
	if gc := GCContent(MustEncode("GCGC")); gc != 1 {
		t.Errorf("GCContent(GCGC) = %v want 1", gc)
	}
	if gc := GCContent(MustEncode("ATGC")); gc != 0.5 {
		t.Errorf("GCContent(ATGC) = %v want 0.5", gc)
	}
}

func BenchmarkPackedAt(b *testing.B) {
	codes := make([]byte, 1<<16)
	rng := rand.New(rand.NewSource(7))
	for i := range codes {
		codes[i] = byte(rng.Intn(4))
	}
	p := Pack(codes)
	b.ResetTimer()
	var sink byte
	for i := 0; i < b.N; i++ {
		sink += p.At(i & (1<<16 - 1))
	}
	_ = sink
}
