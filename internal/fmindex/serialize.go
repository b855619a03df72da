package fmindex

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

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
	bw := bufio.NewWriter(w)
	cw := &countingWriter{w: bw}

	writeU32 := func(v uint32) { binary.Write(cw, binary.LittleEndian, v) }
	writeU64 := func(v uint64) { binary.Write(cw, binary.LittleEndian, v) }

	writeU32(indexMagic)
	writeU32(indexVersion)
	writeU64(uint64(ix.n))
	for _, c := range ix.counts {
		writeU64(uint64(c))
	}
	writeU64(uint64(ix.sentinelRow))
	writeU32(uint32(ix.sampleRate))

	writeBytes := func(b []byte) {
		writeU64(uint64(len(b)))
		cw.Write(b)
	}
	writeInt32s := func(s []int32) {
		writeU64(uint64(len(s)))
		binary.Write(cw, binary.LittleEndian, s)
	}
	bwtBytes, occ := ix.rankSections()
	writeBytes(bwtBytes)
	writeBytes(ix.text.Bytes())
	writeInt32s(occ)
	if ix.sa != nil {
		writeU32(0) // locate mode: full SA
		writeInt32s(ix.sa)
	} else {
		writeU32(1) // locate mode: sampled
		writeInt32s(ix.samples)
		words := ix.sampled.Words()
		writeU64(uint64(len(words)))
		binary.Write(cw, binary.LittleEndian, words)
	}
	if cw.err != nil {
		return cw.n, cw.err
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
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

// ReadFrom deserializes an index written by WriteTo. Input corruption —
// wrong magic, a length field that disagrees with the declared text
// length, internal inconsistency — yields an error wrapping ErrCorrupt
// and never a large speculative allocation: every section length is
// validated against its expected value before the backing slice is made.
func ReadFrom(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	var magic, version uint32
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("fmindex: reading magic: %w", err)
	}
	if magic != indexMagic {
		return nil, corruptf("bad magic %#x", magic)
	}
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	if version != indexVersion {
		return nil, corruptf("unsupported version %d", version)
	}

	readU64 := func() (uint64, error) {
		var v uint64
		err := binary.Read(br, binary.LittleEndian, &v)
		return v, err
	}
	readU32 := func() (uint32, error) {
		var v uint32
		err := binary.Read(br, binary.LittleEndian, &v)
		return v, err
	}

	ix := &Index{}
	nU, err := readU64()
	if err != nil {
		return nil, err
	}
	if nU > maxTextLen {
		return nil, corruptf("implausible length %d", nU)
	}
	ix.n = int(nU)
	total := uint64(0)
	for i := range ix.counts {
		v, err := readU64()
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
	sr, err := readU64()
	if err != nil {
		return nil, err
	}
	if sr > nU {
		return nil, corruptf("sentinel row %d out of range 0..%d", sr, nU)
	}
	ix.sentinelRow = int(sr)
	rate, err := readU32()
	if err != nil {
		return nil, err
	}
	ix.sampleRate = int(rate)

	readBytes := func(name string, want uint64) ([]byte, error) {
		got, err := readU64()
		if err != nil {
			return nil, err
		}
		if got != want {
			return nil, corruptf("%s section declares %d bytes, text length %d implies %d",
				name, got, ix.n, want)
		}
		b := make([]byte, got)
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, err
		}
		return b, nil
	}
	readInt32s := func(name string, want uint64) ([]int32, error) {
		got, err := readU64()
		if err != nil {
			return nil, err
		}
		if got != want {
			return nil, corruptf("%s section declares %d entries, text length %d implies %d",
				name, got, ix.n, want)
		}
		s := make([]int32, got)
		if err := binary.Read(br, binary.LittleEndian, s); err != nil {
			return nil, err
		}
		return s, nil
	}

	bwtBytes, err := readBytes("bwt", expectedBWTBytes(ix.n))
	if err != nil {
		return nil, err
	}
	textBytes, err := readBytes("text", expectedTextBytes(ix.n))
	if err != nil {
		return nil, err
	}
	ix.text = dna.FromPacked(textBytes, ix.n)
	occ, err := readInt32s("occ", expectedOccLen(ix.n))
	if err != nil {
		return nil, err
	}
	// Interleaving recounts every checkpoint from the BWT words, so a
	// stream whose lengths agree but whose checkpoints are wrong is
	// refused here and cannot answer with wrong intervals.
	ix.buildRank(bwtBytes)
	for j := range ix.rank {
		for b, c := range ix.rank[j].occ {
			if occ[4*j+b] != int32(c) {
				return nil, corruptf("occ checkpoint %d holds %d for base %d, the bwt counts %d",
					j, occ[4*j+b], b, c)
			}
		}
	}
	for b, c := range ix.counts {
		if got := ix.occAt(byte(b), ix.n+1); got != c {
			return nil, corruptf("header counts %d of base %d, the bwt holds %d", c, b, got)
		}
	}
	mode, err := readU32()
	if err != nil {
		return nil, err
	}
	switch mode {
	case 0:
		if ix.sampleRate != 0 {
			return nil, corruptf("full-SA locate mode with sample rate %d", ix.sampleRate)
		}
		if ix.sa, err = readInt32s("suffix array", uint64(ix.n)); err != nil {
			return nil, err
		}
		for _, v := range ix.sa {
			if v < 0 || int(v) >= ix.n {
				return nil, corruptf("suffix array entry %d out of range 0..%d", v, ix.n-1)
			}
		}
	case 1:
		if ix.sampleRate < 1 {
			return nil, corruptf("sampled locate mode with rate %d", ix.sampleRate)
		}
		if ix.samples, err = readInt32s("samples", expectedSamples(ix.n, ix.sampleRate)); err != nil {
			return nil, err
		}
		for _, v := range ix.samples {
			if v < 0 || int(v) >= ix.n || int(v)%ix.sampleRate != 0 {
				return nil, corruptf("sample position %d invalid for rate %d", v, ix.sampleRate)
			}
		}
		nWords, err := readU64()
		if err != nil {
			return nil, err
		}
		if nWords != expectedSampledWords(ix.n) {
			return nil, corruptf("sample bitvector declares %d words, text length %d implies %d",
				nWords, ix.n, expectedSampledWords(ix.n))
		}
		words := make([]uint64, nWords)
		if err := binary.Read(br, binary.LittleEndian, words); err != nil {
			return nil, err
		}
		ix.sampled = bitvec.FromWords(words, ix.n+1)
		if got, want := ix.sampled.Ones(), len(ix.samples); got != want {
			return nil, corruptf("sample bitvector marks %d rows for %d samples", got, want)
		}
	default:
		return nil, corruptf("unknown locate mode %d", mode)
	}

	sum := 1
	for b := 0; b < 4; b++ {
		ix.cArr[b] = sum
		sum += ix.counts[b]
	}
	ix.cArr[4] = sum
	if err := ix.validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", err, ErrCorrupt)
	}
	return ix, nil
}

type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
	return n, err
}
