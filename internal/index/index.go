// Package index defines the persistent on-disk index artifact: a
// versioned container that wraps one or more serialized FM-indexes
// (fmindex.WriteTo blobs) together with the contig table and shard
// geometry needed to map against them. The container turns the index
// from a per-run rebuild into a reusable file — the REPUTE embedded
// deployment model, where the reference index is prepared once on a
// host and shipped to the device.
//
// Layout (all integers little-endian):
//
//	magic   u32  "RIDX"
//	version u32
//	nsect   u32
//	section × nsect:
//	    kind    u32   (1 = meta JSON, 2 = FM-index shard blob)
//	    length  u64   payload bytes
//	    sha256  [32]byte of the payload
//	    payload []byte
//
// The first section is always the meta JSON; it is followed by one
// FM-index blob per shard, in shard order. Every payload is covered by
// its SHA-256, so any single corrupted byte is detected at load time
// with a typed *ChecksumError. The container digest — SHA-256 over the
// header and the section headers (not the payloads) — identifies the
// artifact cheaply and is what checkpoints fingerprint.
package index

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"os"

	"repro/internal/durable"
	"repro/internal/fmindex"
	"repro/internal/genome"
)

// Version is the container format version this package writes (and the
// only one it reads).
const Version = 1

const (
	containerMagic   = uint32(0x52494458) // "RIDX"
	containerVersion = uint32(Version)

	kindMeta  = uint32(1)
	kindShard = uint32(2)

	// maxMetaBytes bounds the meta JSON allocation; real tables are a few
	// kilobytes even for thousands of contigs.
	maxMetaBytes = 1 << 24

	// maxSections bounds the section count a header may declare.
	maxSections = 1 << 16

	// DefaultOverlap is the shard overlap used when the builder is not
	// given one: generous for short-read lengths (a read of length L with
	// δ errors needs overlap ≥ L + 2δ to be found near a shard boundary).
	DefaultOverlap = 1024
)

// ErrFormat is wrapped by container-level structural errors: bad magic,
// unsupported version, impossible section table.
var ErrFormat = errors.New("invalid index container")

// ChecksumError reports a payload whose SHA-256 does not match its
// section header — the byte-level corruption case.
type ChecksumError struct {
	Section int
	Kind    uint32
	Want    [32]byte
	Got     [32]byte
}

func (e *ChecksumError) Error() string {
	return fmt.Sprintf("index: checksum mismatch in section %d (kind %d): file is corrupt",
		e.Section, e.Kind)
}

// ShardGeom places one shard in global reference coordinates. The shard's
// FM-index is built over text[SliceStart:SliceEnd]; it *owns* (reports
// mappings for) positions in [OwnStart, OwnEnd). Slices of neighbouring
// shards overlap so reads straddling an ownership boundary are still
// fully contained in some shard's slice.
type ShardGeom struct {
	OwnStart   int64 `json:"own_start"`
	OwnEnd     int64 `json:"own_end"`
	SliceStart int64 `json:"slice_start"`
	SliceEnd   int64 `json:"slice_end"`
}

// Meta is the self-describing header of an index artifact, serialized as
// deterministic JSON in the container's first section.
type Meta struct {
	// RefBases is the concatenated reference length.
	RefBases int64 `json:"ref_bases"`
	// SASampleRate echoes the fmindex build option (0 = full SA).
	SASampleRate int `json:"sa_sample_rate"`
	// Overlap is the shard slice overlap in bases (0 for a single shard).
	Overlap int `json:"overlap"`
	// Contigs is the reference contig table in order.
	Contigs []genome.Contig `json:"contigs"`
	// Shards is the shard geometry, one entry per FM-index section.
	Shards []ShardGeom `json:"shards"`
}

// Sharded reports whether the artifact partitions the reference.
func (m *Meta) Sharded() bool { return len(m.Shards) > 1 }

// File is a fully loaded index artifact: the metadata plus one FM-index
// per shard (a single-shard file is the ordinary whole-reference index).
type File struct {
	Meta    Meta
	Indexes []*fmindex.Index

	digest [32]byte
}

// Digest identifies the artifact: SHA-256 over the container header and
// all section headers (kind, length, payload checksum). It is set by
// WriteTo, Load and ReadInfo, is identical across the three, and is
// cheap to compute on load because payload bytes are already hashed per
// section. Checkpoints use it as the index fingerprint.
func (f *File) Digest() [32]byte { return f.digest }

// Partition computes k ownership ranges over an n-base reference, each
// extended by overlap on both sides (clamped to the text) to form the
// shard slices. Ownership ranges tile [0, n) exactly.
func Partition(n int64, k, overlap int) []ShardGeom {
	if k < 1 {
		k = 1
	}
	shards := make([]ShardGeom, k)
	for i := 0; i < k; i++ {
		own0 := n * int64(i) / int64(k)
		own1 := n * int64(i+1) / int64(k)
		s0 := own0 - int64(overlap)
		if s0 < 0 {
			s0 = 0
		}
		s1 := own1 + int64(overlap)
		if s1 > n {
			s1 = n
		}
		shards[i] = ShardGeom{OwnStart: own0, OwnEnd: own1, SliceStart: s0, SliceEnd: s1}
	}
	return shards
}

// Build constructs an in-memory artifact for a genome: `shards`
// overlapping per-shard indexes, one whole-reference index with no
// overlap when shards <= 1. overlap <= 0 selects DefaultOverlap.
func Build(g *genome.Genome, shards, overlap int, opts fmindex.Options) (*File, error) {
	n := int64(g.Len())
	switch {
	case shards <= 1:
		shards, overlap = 1, 0
	case overlap <= 0:
		overlap = DefaultOverlap
	}
	if int64(shards) > n {
		return nil, fmt.Errorf("index: %d shards for a %d-base reference", shards, n)
	}
	geom := Partition(n, shards, overlap)
	f := &File{
		Meta: Meta{
			RefBases:     n,
			SASampleRate: opts.SASampleRate,
			Overlap:      overlap,
			Contigs:      g.Contigs(),
			Shards:       geom,
		},
		Indexes: make([]*fmindex.Index, shards),
	}
	text := g.Text()
	for i, s := range geom {
		f.Indexes[i] = fmindex.Build(text[s.SliceStart:s.SliceEnd], opts)
	}
	return f, nil
}

// metaJSON marshals the meta deterministically (encoding/json emits
// struct fields in declaration order, so the bytes are stable).
func (f *File) metaJSON() ([]byte, error) {
	if len(f.Indexes) != len(f.Meta.Shards) {
		return nil, fmt.Errorf("index: %d indexes for %d shards", len(f.Indexes), len(f.Meta.Shards))
	}
	return json.Marshal(&f.Meta)
}

// WriteTo serializes the artifact. FM-index payloads are streamed twice —
// once into the section hash to learn (length, sha256) for the header,
// once into the writer — so no shard blob is ever buffered whole.
func (f *File) WriteTo(w io.Writer) (int64, error) {
	meta, err := f.metaJSON()
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	cw := &countingWriter{w: bw}
	hdr := sha256.New()
	out := io.MultiWriter(cw, hdr) // header bytes feed the digest

	writeU32 := func(v uint32) { binary.Write(out, binary.LittleEndian, v) }
	writeU32(containerMagic)
	writeU32(containerVersion)
	writeU32(uint32(1 + len(f.Indexes)))

	writeSection := func(kind uint32, length uint64, sum [32]byte, payload func(io.Writer) error) error {
		writeU32(kind)
		binary.Write(out, binary.LittleEndian, length)
		out.Write(sum[:])
		if cw.err != nil {
			return cw.err
		}
		return payload(cw) // payloads bypass the digest hash
	}

	metaSum := sha256.Sum256(meta)
	err = writeSection(kindMeta, uint64(len(meta)), metaSum, func(w io.Writer) error {
		_, err := w.Write(meta)
		return err
	})
	if err != nil {
		return cw.n, err
	}
	for i, ix := range f.Indexes {
		// First pass: hash the blob, which also measures it, retaining nothing.
		ph := sha256.New()
		hashed, err := ix.WriteTo(ph)
		if err != nil {
			return cw.n, fmt.Errorf("index: hashing shard %d: %w", i, err)
		}
		var sum [32]byte
		ph.Sum(sum[:0])
		err = writeSection(kindShard, uint64(hashed), sum, func(w io.Writer) error {
			// Second pass: WriteTo is deterministic, so this emits the
			// exact bytes hashed above.
			n, err := ix.WriteTo(w)
			if err == nil && n != hashed {
				return fmt.Errorf("index: shard %d wrote %d bytes after hashing %d", i, n, hashed)
			}
			return err
		})
		if err != nil {
			return cw.n, err
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	hdr.Sum(f.digest[:0])
	return cw.n, nil
}

// Save writes the artifact to path through durable.WriteFile, so a
// crash leaves the old artifact or the new one and a saved one survives
// a power cut.
func Save(path string, f *File) error {
	return durable.WriteFile(path, func(w io.Writer) error {
		_, err := f.WriteTo(w)
		return err
	})
}

// sectionReader walks the container structure shared by Load and
// ReadInfo: header, then per-section headers with payload handling
// delegated to the caller. It reads r directly and never past the bytes
// the container declares.
type sectionReader struct {
	r     io.Reader
	limit int64 // remaining input bytes, bounds every allocation; < 0 when unknown
	hdr   hash.Hash
	bufs  [2][]byte // chunk buffers of the shard payload pipeline, made on first use
}

func newSectionReader(r io.Reader, size int64) (*sectionReader, int, error) {
	sr := &sectionReader{r: r, limit: size, hdr: sha256.New()}
	var head [12]byte
	if err := sr.readHeader(head[:]); err != nil {
		return nil, 0, fmt.Errorf("index: reading magic: %w", err)
	}
	magic := binary.LittleEndian.Uint32(head[0:])
	version := binary.LittleEndian.Uint32(head[4:])
	nsect := binary.LittleEndian.Uint32(head[8:])
	if magic != containerMagic {
		return nil, 0, fmt.Errorf("index: bad magic %#x: %w", magic, ErrFormat)
	}
	if version != containerVersion {
		return nil, 0, fmt.Errorf("index: unsupported container version %d: %w", version, ErrFormat)
	}
	if nsect < 2 || nsect > maxSections {
		return nil, 0, fmt.Errorf("index: implausible section count %d: %w", nsect, ErrFormat)
	}
	return sr, int(nsect), nil
}

// readHeader fills b with header bytes, feeding the digest.
func (sr *sectionReader) readHeader(b []byte) error {
	if _, err := io.ReadFull(sr.r, b); err != nil {
		if endsEarly(err) {
			err = fmt.Errorf("index: input ends inside a header: %w: %w", err, ErrFormat)
		}
		return err
	}
	sr.hdr.Write(b)
	sr.limit -= int64(len(b))
	return nil
}

// nextSection reads one section header and validates the length against
// the remaining input.
func (sr *sectionReader) nextSection() (kind uint32, length uint64, sum [32]byte, err error) {
	var head [4 + 8 + 32]byte
	if err = sr.readHeader(head[:]); err != nil {
		return
	}
	kind = binary.LittleEndian.Uint32(head[0:])
	length = binary.LittleEndian.Uint64(head[4:])
	copy(sum[:], head[12:])
	switch {
	case sr.limit >= 0 && length > uint64(sr.limit):
		err = fmt.Errorf("index: section declares %d bytes with %d remaining: %w",
			length, sr.limit, ErrFormat)
	case length > math.MaxInt64: // size unknown: still more than any stream holds
		err = fmt.Errorf("index: section declares %d bytes: %w", length, ErrFormat)
	}
	return
}

// end refuses input that continues after the last section: with the size
// known nothing may remain of it, otherwise the stream must be at EOF.
func (sr *sectionReader) end() error {
	if sr.limit > 0 {
		return fmt.Errorf("index: %d bytes after the last section: %w", sr.limit, ErrFormat)
	}
	if sr.limit < 0 {
		var one [1]byte
		if n, err := io.ReadFull(sr.r, one[:]); n > 0 {
			return fmt.Errorf("index: bytes after the last section: %w", ErrFormat)
		} else if err != io.EOF {
			return err
		}
	}
	return nil
}

// endsEarly reports a read that met the end of its input too soon.
func endsEarly(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

func (sr *sectionReader) digest() (d [32]byte) {
	sr.hdr.Sum(d[:0])
	return
}

// readMeta consumes and verifies the meta section (which must be the
// container's first).
func (sr *sectionReader) readMeta() (*Meta, error) {
	kind, length, sum, err := sr.nextSection()
	if err != nil {
		return nil, err
	}
	if kind != kindMeta {
		return nil, fmt.Errorf("index: first section has kind %d, want meta: %w", kind, ErrFormat)
	}
	if length > maxMetaBytes {
		return nil, fmt.Errorf("index: meta section of %d bytes: %w", length, ErrFormat)
	}
	buf := make([]byte, length)
	if _, err := io.ReadFull(sr.r, buf); err != nil {
		return nil, err
	}
	sr.limit -= int64(length)
	if got := sha256.Sum256(buf); got != sum {
		return nil, &ChecksumError{Section: 0, Kind: kindMeta, Want: sum, Got: got}
	}
	var m Meta
	if err := json.Unmarshal(buf, &m); err != nil {
		return nil, fmt.Errorf("index: decoding meta: %w: %w", err, ErrFormat)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

func (m *Meta) validate() error {
	if len(m.Shards) == 0 {
		return fmt.Errorf("index: meta declares no shards: %w", ErrFormat)
	}
	if len(m.Contigs) == 0 {
		return fmt.Errorf("index: meta declares no contigs: %w", ErrFormat)
	}
	total := int64(0)
	for _, c := range m.Contigs {
		if int64(c.Offset) != total || c.Length <= 0 {
			return fmt.Errorf("index: contig %q has inconsistent layout: %w", c.Name, ErrFormat)
		}
		total += int64(c.Length)
	}
	if total != m.RefBases {
		return fmt.Errorf("index: contigs cover %d bases, meta declares %d: %w",
			total, m.RefBases, ErrFormat)
	}
	prev := int64(0)
	for i, s := range m.Shards {
		if s.OwnStart != prev || s.OwnEnd < s.OwnStart ||
			s.SliceStart > s.OwnStart || s.SliceEnd < s.OwnEnd ||
			s.SliceStart < 0 || s.SliceEnd > m.RefBases {
			return fmt.Errorf("index: shard %d has inconsistent geometry: %w", i, ErrFormat)
		}
		prev = s.OwnEnd
	}
	if prev != m.RefBases {
		return fmt.Errorf("index: shards own %d of %d bases: %w", prev, m.RefBases, ErrFormat)
	}
	return nil
}

// Load reads and fully verifies an artifact: every section checksum is
// checked (typed *ChecksumError on mismatch) and every FM-index is
// deserialized through the hardened fmindex.ReadFrom. size is the total
// input length if known (bounds section allocations); pass < 0 when
// unknown. The artifact digest is available via Digest afterwards.
func Load(r io.Reader, size int64) (*File, error) {
	sr, nsect, err := newSectionReader(r, size)
	if err != nil {
		return nil, err
	}
	m, err := sr.readMeta()
	if err != nil {
		return nil, err
	}
	if nsect != 1+len(m.Shards) {
		return nil, fmt.Errorf("index: %d sections for %d shards: %w", nsect, len(m.Shards), ErrFormat)
	}
	f := &File{Meta: *m, Indexes: make([]*fmindex.Index, len(m.Shards))}
	for i := range f.Indexes {
		kind, length, sum, err := sr.nextSection()
		if err != nil {
			return nil, err
		}
		if kind != kindShard {
			return nil, fmt.Errorf("index: section %d has kind %d, want shard: %w", 1+i, kind, ErrFormat)
		}
		// The checksum runs over exactly the declared payload, on its own
		// goroutine, while the FM-index deserializer decodes the same chunks.
		p := sr.payload(int64(length))
		sr.limit -= int64(length)
		ix, perr := fmindex.ReadFrom(p)
		got, err := p.finish() // the rest of the payload, then the hasher's digest
		// Checksum first: a flipped byte usually surfaces as an fmindex
		// parse error, but the actionable diagnosis is the corruption.
		if got != sum && (err == nil || err == io.ErrUnexpectedEOF) {
			return nil, &ChecksumError{Section: 1 + i, Kind: kindShard, Want: sum, Got: got}
		}
		if perr != nil {
			if endsEarly(perr) { // the payload is intact and still too short
				perr = fmt.Errorf("section ends inside the index: %w: %w", perr, ErrFormat)
			}
			return nil, fmt.Errorf("index: shard %d: %w", i, perr)
		}
		if err != nil {
			if err == io.ErrUnexpectedEOF { // a length past the end of the input, over an intact payload
				err = fmt.Errorf("index: input ends inside section %d: %w: %w", 1+i, err, ErrFormat)
			}
			return nil, err
		}
		want := m.Shards[i].SliceEnd - m.Shards[i].SliceStart
		if int64(ix.Len()) != want {
			return nil, fmt.Errorf("index: shard %d holds %d bases, geometry implies %d: %w",
				i, ix.Len(), want, ErrFormat)
		}
		f.Indexes[i] = ix
	}
	if err := sr.end(); err != nil {
		return nil, err
	}
	f.digest = sr.digest()
	return f, nil
}

const (
	// chunkSize is the unit in which a shard payload is read, hashed and
	// decoded.
	chunkSize = 1 << 20
	// chunkCarry is the room kept in front of a chunk for the undecoded
	// tail of the chunk before it, so a field that straddles two chunks is
	// still peeked in one piece. fmindex peeks 8 bytes at most.
	chunkCarry = 16
)

// payloadReader is the load pipeline for one shard section. The calling
// goroutine reads the payload chunk by chunk into two alternating
// buffers; each chunk goes, read-only from then on, to one hashing
// goroutine, while the caller decodes the same bytes through Peek and
// Discard (it is the buffered source fmindex.ReadFrom reads in place).
// A buffer comes back on free once hashed, and the caller takes the next
// one only when it has consumed the chunk before, so no buffer is
// overwritten while either side still reads it.
type payloadReader struct {
	r      io.Reader
	remain int64  // payload bytes not yet read from r
	cur    []byte // read and not yet consumed
	err    error  // why reading stopped; io.ErrUnexpectedEOF for a short payload
	// work and free each have one slot per buffer, so neither goroutine
	// ever waits to hand a buffer over. free is closed by the hasher once
	// work is closed and sum is set.
	work chan []byte
	free chan []byte
	sum  [32]byte
}

// payload starts the pipeline over the next length bytes of input.
func (sr *sectionReader) payload(length int64) *payloadReader {
	p := &payloadReader{r: sr.r, remain: length,
		work: make(chan []byte, len(sr.bufs)), free: make(chan []byte, len(sr.bufs))}
	for i := range sr.bufs {
		if sr.bufs[i] == nil {
			n := int64(chunkSize)
			if sr.limit >= 0 {
				// The two buffers of a small file hold it between them.
				n = min(n, sr.limit/2+1)
			}
			sr.bufs[i] = make([]byte, chunkCarry+n)
		}
		p.free <- sr.bufs[i]
	}
	go func() {
		h := sha256.New()
		for buf := range p.work {
			h.Write(buf[chunkCarry:])
			p.free <- buf[:cap(buf)]
		}
		h.Sum(p.sum[:0])
		close(p.free)
	}()
	return p
}

// next reads the following chunk behind what is left of the current one
// (at most chunkCarry bytes) and hands it to the hasher.
func (p *payloadReader) next() error {
	if p.err != nil {
		return p.err
	}
	if p.remain == 0 {
		return io.EOF
	}
	buf := <-p.free
	n := min(int64(len(buf)-chunkCarry), p.remain)
	k, err := io.ReadFull(p.r, buf[chunkCarry:chunkCarry+int(n)])
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	p.err = err
	p.remain -= int64(k)
	start := chunkCarry - copy(buf[chunkCarry-len(p.cur):chunkCarry], p.cur)
	p.cur = buf[start : chunkCarry+k]
	p.work <- buf[:chunkCarry+k]
	if k == 0 {
		return err
	}
	return nil
}

// Peek returns the next n bytes without consuming them, or what is left
// of the payload and why there are no more.
func (p *payloadReader) Peek(n int) ([]byte, error) {
	for len(p.cur) < n {
		if n > chunkCarry {
			return p.cur, bufio.ErrBufferFull
		}
		if err := p.next(); err != nil {
			return p.cur, err
		}
	}
	return p.cur[:n], nil
}

// Discard consumes n bytes that a Peek has returned.
func (p *payloadReader) Discard(n int) (int, error) {
	p.cur = p.cur[n:]
	return n, nil
}

// Buffered is how many bytes Peek can return without reading.
func (p *payloadReader) Buffered() int { return len(p.cur) }

// Len is how many bytes of the payload are not consumed yet; fmindex
// refuses a section that claims more before it allocates for it.
func (p *payloadReader) Len() int {
	return len(p.cur) + int(min(p.remain, int64(math.MaxInt-len(p.cur))))
}

// Read lets the payload pass as an io.Reader; fmindex uses Peek instead.
func (p *payloadReader) Read(b []byte) (int, error) {
	if _, err := p.Peek(1); err != nil {
		return 0, err
	}
	n := copy(b, p.cur)
	p.cur = p.cur[n:]
	return n, nil
}

// finish reads and hashes whatever the decoder left of the payload, waits
// for the hasher to exit and returns the digest of the bytes that were
// there, with io.ErrUnexpectedEOF if they were fewer than declared.
func (p *payloadReader) finish() ([32]byte, error) {
	for p.err == nil && p.remain > 0 {
		p.cur = nil
		_ = p.next() // what stops it stays in p.err
	}
	close(p.work)
	for range p.free {
	}
	return p.sum, p.err
}

// LoadFile opens and fully verifies the artifact at path.
func LoadFile(path string) (*File, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	st, err := fh.Stat()
	if err != nil {
		return nil, err
	}
	f, err := Load(fh, st.Size())
	if err != nil {
		return nil, fmt.Errorf("loading index %s: %w", path, err)
	}
	return f, nil
}

// SectionInfo summarizes one container section for `index info`.
type SectionInfo struct {
	Kind   uint32
	Length uint64
	SHA256 [32]byte
}

// Info is the cheap artifact summary: metadata and section table read
// without deserializing (or verifying) the FM-index payloads. Only the
// meta checksum is validated.
type Info struct {
	Meta     Meta
	Sections []SectionInfo
	Digest   [32]byte
	// TotalBytes is the container size implied by the section table.
	TotalBytes int64
}

// ReadInfo reads the artifact summary, skipping shard payloads. The
// digest it reports matches Load and WriteTo.
func ReadInfo(r io.Reader, size int64) (*Info, error) {
	sr, nsect, err := newSectionReader(r, size)
	if err != nil {
		return nil, err
	}
	m, err := sr.readMeta()
	if err != nil {
		return nil, err
	}
	if nsect != 1+len(m.Shards) {
		return nil, fmt.Errorf("index: %d sections for %d shards: %w", nsect, len(m.Shards), ErrFormat)
	}
	info := &Info{Meta: *m}
	meta, _ := json.Marshal(m)
	info.Sections = append(info.Sections, SectionInfo{Kind: kindMeta, Length: uint64(len(meta)), SHA256: sha256.Sum256(meta)})
	for i := 1; i < nsect; i++ {
		kind, length, sum, err := sr.nextSection()
		if err != nil {
			return nil, err
		}
		if _, err := io.CopyN(io.Discard, sr.r, int64(length)); err != nil {
			return nil, err
		}
		sr.limit -= int64(length)
		info.Sections = append(info.Sections, SectionInfo{Kind: kind, Length: length, SHA256: sum})
	}
	if err := sr.end(); err != nil {
		return nil, err
	}
	info.Digest = sr.digest()
	for _, s := range info.Sections {
		info.TotalBytes += int64(s.Length) + 4 + 8 + 32
	}
	info.TotalBytes += 12 // container header
	return info, nil
}

// ReadInfoFile reads the summary of the artifact at path.
func ReadInfoFile(path string) (*Info, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	st, err := fh.Stat()
	if err != nil {
		return nil, err
	}
	info, err := ReadInfo(fh, st.Size())
	if err != nil {
		return nil, fmt.Errorf("reading index %s: %w", path, err)
	}
	return info, nil
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
