package fmindex

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/bitvec"
	"repro/internal/dna"
)

// Binary format: magic, version, then fixed-width fields and length-
// prefixed sections. All integers are little-endian. Every section length
// is fully determined by the text length n, so ReadFrom can reject a
// corrupt length field before allocating anything — a fuzzer-supplied
// 8-byte field must never translate into a multi-gigabyte make().
const (
	indexMagic   = uint32(0x52455055) // "REPU"
	indexVersion = uint32(1)

	// maxTextLen caps the text length a deserialized index may claim
	// (16 Gbase — far beyond any reference this tool targets, small
	// enough that the derived section sizes stay addressable).
	maxTextLen = 1 << 34
)

// ErrCorrupt is wrapped by every ReadFrom error caused by the input data
// itself (as opposed to I/O failure): bad magic, impossible lengths,
// inconsistent internal structure. errors.Is(err, ErrCorrupt)
// distinguishes "this file is damaged" from "this file is unreadable".
var ErrCorrupt = errors.New("corrupt index data")

// corruptf builds an ErrCorrupt-wrapped deserialization error.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("fmindex: "+format+": %w", append(args, ErrCorrupt)...)
}

// WriteTo serializes the index. It implements io.WriterTo.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	e := &encoder{w: w, buf: make([]byte, 0, encoderChunk)}
	e.u32(indexMagic)
	e.u32(indexVersion)
	e.u64(uint64(ix.n))
	for _, c := range ix.counts {
		e.u64(uint64(c))
	}
	e.u64(uint64(ix.sentinelRow))
	e.u32(uint32(ix.sampleRate))

	bwtBytes, occ := ix.rankSections()
	e.bytes(bwtBytes)
	e.bytes(ix.text.Bytes())
	e.int32s(occ)
	if ix.sa != nil {
		e.u32(0) // locate mode: full SA
		e.int32s(ix.sa)
	} else {
		e.u32(1) // locate mode: sampled
		e.int32s(ix.samples)
		e.uint64s(ix.sampled.Words())
	}
	e.flush()
	return e.n, e.err
}

// encoderChunk is the encoder's buffer: every section, the 4-bytes-per-base
// suffix array included, is encoded through it piece by piece, so a save
// holds no second copy of the index.
const encoderChunk = 1 << 16

// encoder writes the format's little-endian fields through one fixed
// buffer. The first write error sticks and drops everything after it.
type encoder struct {
	w   io.Writer
	buf []byte // encoded and not yet written; cap encoderChunk
	n   int64  // bytes w has taken
	err error
}

func (e *encoder) flush() {
	e.write(e.buf)
	e.buf = e.buf[:0]
}

func (e *encoder) write(b []byte) {
	if e.err != nil || len(b) == 0 {
		return
	}
	var k int
	k, e.err = e.w.Write(b)
	e.n += int64(k)
}

// room flushes unless k more bytes fit the buffer.
func (e *encoder) room(k int) {
	if cap(e.buf)-len(e.buf) < k {
		e.flush()
	}
}

func (e *encoder) u32(v uint32) {
	e.room(4)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

func (e *encoder) u64(v uint64) {
	e.room(8)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// bytes writes a length-prefixed byte section, the payload straight from b.
func (e *encoder) bytes(b []byte) {
	e.u64(uint64(len(b)))
	e.flush()
	e.write(b)
}

// int32s writes a length-prefixed int32 section, a bufferful at a time.
func (e *encoder) int32s(s []int32) {
	e.u64(uint64(len(s)))
	for len(s) > 0 {
		e.room(4)
		n := min(len(s), (cap(e.buf)-len(e.buf))/4)
		b := e.buf[len(e.buf) : len(e.buf)+4*n]
		for i, v := range s[:n] {
			binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
		}
		e.buf = e.buf[:len(e.buf)+len(b)]
		s = s[n:]
	}
}

func (e *encoder) uint64s(s []uint64) {
	e.u64(uint64(len(s)))
	for _, v := range s {
		e.u64(v)
	}
}

// rankSections de-interleaves the rank blocks back into the format's two
// sections, the packed BWT bytes and the int32 checkpoint array
// (occ[4*j+b] = block j's count of base b): the file keeps the layout it
// had before the blocks existed, so artifacts and their digests do not
// depend on how the host arranges rank in memory.
func (ix *Index) rankSections() (bwtBytes []byte, occ []int32) {
	bwtBytes = make([]byte, len(ix.rank)*occCheckpoint/4)
	occ = make([]int32, 0, expectedOccLen(ix.n))
	for j := range ix.rank {
		blk := &ix.rank[j]
		for w, word := range blk.bwt {
			binary.LittleEndian.PutUint64(bwtBytes[j*occCheckpoint/4+8*w:], word)
		}
		for _, c := range blk.occ {
			occ = append(occ, int32(c))
		}
	}
	return bwtBytes[:expectedBWTBytes(ix.n)], occ
}

// Expected section lengths for a text of n bases. They mirror the build
// path exactly: Pack stores 4 bases per byte, the BWT covers n+1 rows,
// occ holds one 4-entry checkpoint per occCheckpoint rows plus one, the
// full SA has n entries, and the sampled mode stores every rate-th text
// position plus an (n+1)-bit marker vector.
func expectedBWTBytes(n int) uint64  { return uint64(n+1+3) / 4 }
func expectedTextBytes(n int) uint64 { return uint64(n+3) / 4 }
func expectedOccLen(n int) uint64    { return 4 * (uint64(n+1)/occCheckpoint + 1) }
func expectedSamples(n, rate int) uint64 {
	if n == 0 {
		return 0
	}
	return uint64((n-1)/rate) + 1
}
func expectedSampledWords(n int) uint64 { return uint64(n+1+63) / 64 }

// source is the buffered input ReadFrom decodes from. Peek hands out a
// view of bytes the source has already read, so a multi-megabyte section
// is decoded where it lies rather than copied into a staging slice first.
// *bufio.Reader implements it, and ReadFrom wraps any other stream in one.
// A caller whose reader implements it (internal/index's section pipeline)
// is read as it is: exactly the index's bytes and none after them.
type source interface {
	Peek(n int) ([]byte, error)
	Discard(n int) (int, error)
	Buffered() int
}

// decoder reads the format's little-endian fields and sections off a
// source. n is the declared text length, which fixes every section length.
type decoder struct {
	src source
	n   int
}

// peek returns a view of the next n bytes (n is at most 8, which every
// source can hold), reporting a stream that ends inside them the way
// binary.Read does.
func (d *decoder) peek(n int) ([]byte, error) {
	b, err := d.src.Peek(n)
	if err == io.EOF && len(b) > 0 {
		err = io.ErrUnexpectedEOF
	}
	return b, err
}

// skip consumes n bytes a peek or window has just returned.
func (d *decoder) skip(n int) {
	d.src.Discard(n) // cannot fail: the bytes are buffered
}

func (d *decoder) u32() (uint32, error) {
	b, err := d.peek(4)
	if err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(b)
	d.skip(4)
	return v, nil
}

func (d *decoder) u64() (uint64, error) {
	b, err := d.peek(8)
	if err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(b)
	d.skip(8)
	return v, nil
}

// window returns a view of what the source has buffered: at least one
// element of size bytes, at most max bytes, a whole number of elements.
// The bytes are not consumed.
func (d *decoder) window(size, max int) ([]byte, error) {
	if _, err := d.peek(size); err != nil {
		return nil, err
	}
	n := min(d.src.Buffered(), max)
	return d.src.Peek(n - n%size)
}

// length reads the length prefix of a section of size-byte elements and
// refuses, before anything is allocated for it, any value but the one the
// text length implies — and that one too where the source knows how much
// input is left (a Len method, which internal/index's has) and it is less.
func (d *decoder) length(name, unit string, want uint64, size int) error {
	got, err := d.u64()
	if err != nil {
		return err
	}
	if got != want {
		return corruptf("%s section declares %d %s, text length %d implies %d", name, got, unit, d.n, want)
	}
	if l, ok := d.src.(interface{ Len() int }); ok && want > uint64(l.Len())/uint64(size) {
		return corruptf("%s section of %d %s in an input with %d bytes left", name, want, unit, l.Len())
	}
	return nil
}

func (d *decoder) bytes(name string, want uint64) ([]byte, error) {
	if err := d.length(name, "bytes", want, 1); err != nil {
		return nil, err
	}
	out := make([]byte, want)
	for i := 0; i < len(out); {
		b, err := d.window(1, len(out)-i)
		if err != nil {
			return nil, err
		}
		i += copy(out[i:], b)
		d.skip(len(b))
	}
	return out, nil
}

// int32s decodes a section of want entries into its final slice, in one
// pass that also refuses the first entry outside [0, limit) or not a
// multiple of step.
func (d *decoder) int32s(name string, want uint64, limit, step int) ([]int32, error) {
	if err := d.length(name, "entries", want, 4); err != nil {
		return nil, err
	}
	// As unsigned, a negative entry is above every limit an int32 can meet.
	lim := uint32(min(limit, math.MaxInt32+1))
	out := make([]int32, want)
	for rest := out; len(rest) > 0; {
		b, err := d.window(4, 4*len(rest))
		if err != nil {
			return nil, err
		}
		dst := rest[:len(b)/4]
		for i := range dst {
			v := binary.LittleEndian.Uint32(b[4*i:])
			if v >= lim || step > 1 && int(v)%step != 0 {
				return nil, corruptf("%s entry %d is not a multiple of %d within 0..%d", name, int32(v), step, limit-1)
			}
			dst[i] = int32(v)
		}
		rest = rest[len(dst):]
		d.skip(len(b))
	}
	return out, nil
}

// occ reads the checkpoint section against the rank blocks buildRank
// counted from the BWT words, where it lies and without a copy: a stream
// whose lengths agree but whose checkpoints are wrong is refused here and
// cannot answer with wrong intervals.
func (d *decoder) occ(rank []rankBlock) error {
	want := 4 * len(rank)
	if err := d.length("occ", "entries", uint64(want), 4); err != nil {
		return err
	}
	for i := 0; i < want; {
		b, err := d.window(4, 4*(want-i))
		if err != nil {
			return err
		}
		for k := 0; k < len(b); k, i = k+4, i+1 {
			j, base := i/4, i%4
			if got, c := binary.LittleEndian.Uint32(b[k:]), rank[j].occ[base]; uint64(got) != c {
				return corruptf("occ checkpoint %d holds %d for base %d, the bwt counts %d", j, int32(got), base, c)
			}
		}
		d.skip(len(b))
	}
	return nil
}

func (d *decoder) uint64s(name string, want uint64) ([]uint64, error) {
	if err := d.length(name, "words", want, 8); err != nil {
		return nil, err
	}
	out := make([]uint64, want)
	for rest := out; len(rest) > 0; {
		b, err := d.window(8, 8*len(rest))
		if err != nil {
			return nil, err
		}
		dst := rest[:len(b)/8]
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
		rest = rest[len(dst):]
		d.skip(len(b))
	}
	return out, nil
}

// ReadFrom deserializes an index written by WriteTo. Input corruption —
// wrong magic, a length field that disagrees with the declared text
// length, internal inconsistency — yields an error wrapping ErrCorrupt
// and never a large speculative allocation: every section length is
// validated against its expected value before the backing slice is made.
func ReadFrom(r io.Reader) (*Index, error) {
	src, ok := r.(source)
	if !ok {
		src = bufio.NewReaderSize(r, 1<<16)
	}
	d := &decoder{src: src}
	magic, err := d.u32()
	if err != nil {
		return nil, fmt.Errorf("fmindex: reading magic: %w", err)
	}
	if magic != indexMagic {
		return nil, corruptf("bad magic %#x", magic)
	}
	version, err := d.u32()
	if err != nil {
		return nil, err
	}
	if version != indexVersion {
		return nil, corruptf("unsupported version %d", version)
	}

	ix := &Index{}
	nU, err := d.u64()
	if err != nil {
		return nil, err
	}
	if nU > maxTextLen {
		return nil, corruptf("implausible length %d", nU)
	}
	ix.n, d.n = int(nU), int(nU)
	total := uint64(0)
	for i := range ix.counts {
		v, err := d.u64()
		if err != nil {
			return nil, err
		}
		if v > nU {
			return nil, corruptf("symbol count %d exceeds length %d", v, nU)
		}
		ix.counts[i] = int(v)
		total += v
	}
	if total != nU {
		return nil, corruptf("counts sum %d != length %d", total, nU)
	}
	sr, err := d.u64()
	if err != nil {
		return nil, err
	}
	if sr > nU {
		return nil, corruptf("sentinel row %d out of range 0..%d", sr, nU)
	}
	ix.sentinelRow = int(sr)
	rate, err := d.u32()
	if err != nil {
		return nil, err
	}
	ix.sampleRate = int(rate)

	bwtBytes, err := d.bytes("bwt", expectedBWTBytes(ix.n))
	if err != nil {
		return nil, err
	}
	textBytes, err := d.bytes("text", expectedTextBytes(ix.n))
	if err != nil {
		return nil, err
	}
	ix.text = dna.FromPacked(textBytes, ix.n)
	ix.buildRank(bwtBytes)
	if err := d.occ(ix.rank); err != nil {
		return nil, err
	}
	for b, c := range ix.counts {
		if got := ix.occAt(byte(b), ix.n+1); got != c {
			return nil, corruptf("header counts %d of base %d, the bwt holds %d", c, b, got)
		}
	}
	sum := 1
	for b := 0; b < 4; b++ {
		ix.cArr[b] = sum
		sum += ix.counts[b]
	}
	ix.cArr[4] = sum
	// Rank and cArr are all the k-mer table reads, and both are final and
	// verified here; internal/index's hashing goroutine works on the chunk
	// it holds meanwhile (DESIGN.md §12).
	ix.buildKmers()
	mode, err := d.u32()
	if err != nil {
		return nil, err
	}
	switch mode {
	case 0:
		if ix.sampleRate != 0 {
			return nil, corruptf("full-SA locate mode with sample rate %d", ix.sampleRate)
		}
		if ix.sa, err = d.int32s("suffix array", uint64(ix.n), ix.n, 1); err != nil {
			return nil, err
		}
	case 1:
		if ix.sampleRate < 1 {
			return nil, corruptf("sampled locate mode with rate %d", ix.sampleRate)
		}
		ix.samples, err = d.int32s("samples", expectedSamples(ix.n, ix.sampleRate), ix.n, ix.sampleRate)
		if err != nil {
			return nil, err
		}
		words, err := d.uint64s("sample bitvector", expectedSampledWords(ix.n))
		if err != nil {
			return nil, err
		}
		ix.sampled = bitvec.FromWords(words, ix.n+1)
		if got, want := ix.sampled.Ones(), len(ix.samples); got != want {
			return nil, corruptf("sample bitvector marks %d rows for %d samples", got, want)
		}
	default:
		return nil, corruptf("unknown locate mode %d", mode)
	}

	if err := ix.validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", err, ErrCorrupt)
	}
	return ix, nil
}
