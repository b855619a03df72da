// Package dna provides base encodings and compact sequence types shared by
// every substrate in the mapper: 2-bit base codes, packed sequences with
// random access, reverse complements and ASCII conversion.
//
// Throughout the repository a "code" is a byte in 0..3 encoding A, C, G, T.
// Unpacked sequences ([]byte of codes) are used on hot paths that need
// byte-at-a-time access; PackedSeq stores four bases per byte for large,
// long-lived data such as the reference text inside the FM-index.
package dna

import (
	"encoding/binary"
	"fmt"
)

// Base codes. The ordering is lexicographic so that suffix arrays and
// FM-index C arrays built over codes order the same way as over ASCII.
const (
	A byte = 0
	C byte = 1
	G byte = 2
	T byte = 3
)

// Alphabet is the number of distinct base codes.
const Alphabet = 4

// codeToASCII maps a base code to its upper-case ASCII letter.
var codeToASCII = [Alphabet]byte{'A', 'C', 'G', 'T'}

// asciiToCode maps ASCII to a base code; 0xFF marks invalid characters.
var asciiToCode = func() [256]byte {
	var t [256]byte
	for i := range t {
		t[i] = 0xFF
	}
	t['A'], t['a'] = A, A
	t['C'], t['c'] = C, C
	t['G'], t['g'] = G, G
	t['T'], t['t'] = T, T
	return t
}()

// CodeOf returns the base code for an ASCII base letter. The second result
// is false for characters outside ACGTacgt (including N).
func CodeOf(ascii byte) (byte, bool) {
	c := asciiToCode[ascii]
	return c, c != 0xFF
}

// ASCIIOf returns the upper-case ASCII letter for a base code.
// It panics if code is not in 0..3.
func ASCIIOf(code byte) byte {
	return codeToASCII[code]
}

// Complement returns the complement of a base code (A<->T, C<->G).
func Complement(code byte) byte { return 3 - code }

// Encode converts an ASCII base string to a fresh slice of base codes.
// Characters outside ACGTacgt are reported as an error with their position.
func Encode(s []byte) ([]byte, error) {
	out := make([]byte, len(s))
	for i, b := range s {
		c, ok := CodeOf(b)
		if !ok {
			return nil, fmt.Errorf("dna: invalid base %q at position %d", b, i)
		}
		out[i] = c
	}
	return out, nil
}

// MustEncode is Encode for known-clean inputs, mainly tests and examples.
func MustEncode(s string) []byte {
	out, err := Encode([]byte(s))
	if err != nil {
		panic(err)
	}
	return out
}

// Decode converts base codes back to an ASCII string.
func Decode(codes []byte) string {
	out := make([]byte, len(codes))
	for i, c := range codes {
		out[i] = ASCIIOf(c)
	}
	return string(out)
}

// ReverseComplement returns the reverse complement of a code sequence as a
// fresh slice.
func ReverseComplement(codes []byte) []byte {
	out := make([]byte, len(codes))
	for i, c := range codes {
		out[len(codes)-1-i] = Complement(c)
	}
	return out
}

// ReverseComplementInto writes the reverse complement of src into dst,
// which must have the same length as src. dst may be src itself (the
// complement is then taken in place); any other overlap of the two is
// unsupported. Callers on hot paths reuse dst across reads.
func ReverseComplementInto(dst, src []byte) {
	if len(dst) != len(src) {
		panic("dna: ReverseComplementInto length mismatch")
	}
	n := len(src)
	for i := 0; i < n/2; i++ {
		a, b := src[i], src[n-1-i]
		dst[i], dst[n-1-i] = Complement(b), Complement(a)
	}
	if n%2 == 1 {
		dst[n/2] = Complement(src[n/2])
	}
}

// PackedSeq is an immutable 2-bit packed DNA sequence: four bases per byte,
// little-endian within the byte (base i occupies bits 2*(i%4)..2*(i%4)+1).
type PackedSeq struct {
	data []byte
	n    int
}

// Pack builds a PackedSeq from a slice of base codes.
func Pack(codes []byte) PackedSeq {
	data := make([]byte, (len(codes)+3)/4)
	for i, c := range codes {
		data[i>>2] |= c << uint((i&3)*2)
	}
	return PackedSeq{data: data, n: len(codes)}
}

// FromPacked wraps already-packed bytes (as returned by Bytes) holding n
// bases. It panics if data is too short for n bases.
func FromPacked(data []byte, n int) PackedSeq {
	if len(data) < (n+3)/4 {
		panic(fmt.Sprintf("dna: FromPacked: %d bytes cannot hold %d bases", len(data), n))
	}
	return PackedSeq{data: data, n: n}
}

// Len returns the number of bases.
func (p PackedSeq) Len() int { return p.n }

// At returns the base code at position i.
func (p PackedSeq) At(i int) byte {
	return (p.data[i>>2] >> uint((i&3)*2)) & 3
}

// Bytes returns the underlying packed bytes (shared, not copied).
// The final byte's unused high bits are zero.
func (p PackedSeq) Bytes() []byte { return p.data }

// Unpack expands the packed sequence back to a fresh slice of base codes.
func (p PackedSeq) Unpack() []byte { return p.Slice(0, p.n) }

// Slice unpacks the half-open range [lo, hi) into a fresh code slice.
func (p PackedSeq) Slice(lo, hi int) []byte {
	if lo < 0 || hi > p.n || lo > hi {
		panic(fmt.Sprintf("dna: Slice[%d:%d) out of range 0..%d", lo, hi, p.n))
	}
	return p.SliceInto(make([]byte, hi-lo), lo, hi)
}

// SliceInto unpacks [lo, hi) into dst (which must be at least hi-lo long)
// and returns the filled prefix. It avoids allocation on verification hot
// paths, and unpacks a whole packed byte — four bases — per step between
// the unaligned ends.
func (p PackedSeq) SliceInto(dst []byte, lo, hi int) []byte {
	if lo < 0 || hi > p.n || lo > hi {
		panic(fmt.Sprintf("dna: SliceInto[%d:%d) out of range 0..%d", lo, hi, p.n))
	}
	dst = dst[:hi-lo]
	i := 0
	for ; lo&3 != 0 && i < len(dst); i, lo = i+1, lo+1 {
		dst[i] = p.At(lo)
	}
	for ; i+4 <= len(dst); i, lo = i+4, lo+4 {
		b, d := p.data[lo>>2], dst[i:i+4]
		d[0], d[1], d[2], d[3] = b&3, b>>2&3, b>>4&3, b>>6
	}
	for ; i < len(dst); i, lo = i+1, lo+1 {
		dst[i] = p.At(lo)
	}
	return dst
}

// Planes writes [lo, hi) as two bit planes: bit k of low[k/64] is the
// low bit of base lo+k's code and bit k of high[k/64] its high bit. It
// fills the ⌈(hi−lo)/64⌉ words of each that low and high must hold and
// leaves every bit past hi−lo zero. Each 32-base half-word is one
// 64-bit load and an even-bit compaction per plane, so a 64-base word
// costs two loads and no per-base step.
//
//repute:hotpath
func (p PackedSeq) Planes(lo, hi int, low, high []uint64) {
	if lo < 0 || hi > p.n || lo > hi {
		//repute:allow hotalloc -- the out-of-range panic, never taken by a valid call
		panic(fmt.Sprintf("dna: Planes[%d:%d) out of range 0..%d", lo, hi, p.n))
	}
	words := (hi - lo + 63) / 64
	low, high = low[:words], high[:words]
	for k := range low {
		a, b := p.Codes32(lo+64*k), p.Codes32(lo+64*k+32)
		low[k] = evenBits(a) | evenBits(b)<<32
		high[k] = evenBits(a>>1) | evenBits(b>>1)<<32
	}
	if r := uint(hi-lo) & 63; r != 0 {
		low[words-1] &= 1<<r - 1
		high[words-1] &= 1<<r - 1
	}
}

// Codes32 returns the 64 code bits of bases i … i+31, base i in the low
// two; bases past the packed bytes read as zero. It is small enough to
// inline: away from the text's end, one unaligned 64-bit load and one
// byte load.
func (p PackedSeq) Codes32(i int) uint64 {
	j, sh := i>>2, uint(i&3)*2
	if j+8 < len(p.data) {
		return binary.LittleEndian.Uint64(p.data[j:])>>sh | uint64(p.data[j+8])<<(64-sh)
	}
	var v uint64
	for t := len(p.data) - 1; t >= j; t-- {
		v = v<<8 | uint64(p.data[t])
	}
	return v >> sh
}

// evenBits compacts the 32 even-position bits of x into its low half.
func evenBits(x uint64) uint64 {
	x &= 0x5555555555555555
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0f0f0f0f0f0f0f0f
	x = (x | x>>4) & 0x00ff00ff00ff00ff
	x = (x | x>>8) & 0x0000ffff0000ffff
	return (x | x>>16) & 0x00000000ffffffff
}

// GCContent reports the fraction of G or C bases, 0 for empty input.
func GCContent(codes []byte) float64 {
	if len(codes) == 0 {
		return 0
	}
	gc := 0
	for _, c := range codes {
		if c == C || c == G {
			gc++
		}
	}
	return float64(gc) / float64(len(codes))
}
