package fastx

// Scanner is the package's one FASTA/FASTQ parser: the index builder
// reads the reference through it and the read stream reads FASTQ through
// it. It parses one record at a time from an io.Reader, keeping memory
// bounded by the longest single record instead of the whole file — the
// ingest model a read set larger than an embedded device's RAM demands.
// Beyond incrementality it provides:
//
//   - typed parse errors (ParseError) carrying file, line, record ordinal
//     and a stable reason token;
//   - a lenient mode that skips malformed records, tallies them per
//     reason and emits trace instants instead of aborting the stream;
//   - exact byte-offset tracking at record boundaries, so a checkpointed
//     run can reopen the file, seek, and continue parsing exactly where
//     it stopped (internal/checkpoint, DESIGN.md §11).
//
// The package's tests keep independent bufio-based batch parsers
// (ReadFasta, ReadFastq) as oracles: the fuzz targets cross-validate the
// Scanner against them, so a parsing bug must strike both to go
// unnoticed.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"

	"repro/internal/trace"
)

// Format selects the record syntax a Scanner expects.
type Format int

// Formats. FormatAuto sniffs the first non-blank line: '>' means FASTA,
// '@' means FASTQ, anything else is an unknown-format error (fatal even
// in lenient mode — without a format there is nothing to resync to).
const (
	FormatAuto Format = iota
	FormatFASTA
	FormatFASTQ
)

func (f Format) String() string {
	switch f {
	case FormatFASTA:
		return "fasta"
	case FormatFASTQ:
		return "fastq"
	default:
		return "auto"
	}
}

// Parse-failure reason tokens. They are stable identifiers — the
// per-reason skip tallies and the derived metrics registry key on them.
const (
	ReasonMissingHeader    = "missing-header"    // expected '>'/'@' header line
	ReasonTruncatedRecord  = "truncated-record"  // EOF in the middle of a record
	ReasonMissingSeparator = "missing-separator" // FASTQ third line is not '+'
	ReasonLengthMismatch   = "length-mismatch"   // FASTQ quality length != sequence length
	ReasonLineTooLong      = "line-too-long"     // line exceeds maxLineBytes
	ReasonUnknownFormat    = "unknown-format"    // auto-detection found neither '>' nor '@'
	ReasonShortRead        = "short-read"        // read too short to map (tallied by the stream source)
	ReasonStrayHeader      = "stray-header"      // '>' after the first column of a FASTA sequence line
)

// ParseError describes one malformed record in a FASTA/FASTQ stream.
type ParseError struct {
	File   string // input name from ScanOptions.Name (may be empty)
	Line   int    // 1-based line where the problem was detected
	Record int    // 0-based ordinal of the record being parsed
	Reason string // stable reason token (Reason* constants)
	Detail string // human-oriented specifics
}

func (e *ParseError) Error() string {
	name := e.File
	if name == "" {
		name = "fastx"
	}
	return fmt.Sprintf("%s: line %d: record %d: %s: %s",
		name, e.Line, e.Record, e.Reason, e.Detail)
}

// SkipStats tallies the records a lenient Scanner dropped.
type SkipStats struct {
	// Records is the total number of skipped records.
	Records int
	// Reasons breaks the skips down by reason token.
	Reasons map[string]int
}

// count tallies one skipped record.
func (s *SkipStats) count(reason string) {
	s.Records++
	if s.Reasons == nil {
		s.Reasons = map[string]int{}
	}
	s.Reasons[reason]++
}

// Clone returns a deep copy (the Reasons map is not shared).
func (s SkipStats) Clone() SkipStats {
	out := SkipStats{Records: s.Records}
	if len(s.Reasons) > 0 {
		out.Reasons = make(map[string]int, len(s.Reasons))
		for k, v := range s.Reasons {
			out.Reasons[k] = v
		}
	}
	return out
}

// ScanOptions configure a Scanner. The zero value is a strict
// auto-detecting scanner.
type ScanOptions struct {
	// Format fixes the record syntax; FormatAuto sniffs the first line.
	Format Format
	// Lenient skips malformed records (tallying them per reason and
	// emitting trace instants) instead of stopping with a ParseError.
	Lenient bool
	// Name labels the input in errors and skip instants (a file path).
	Name string
	// Tracer, when non-nil, receives a "record-skipped" instant on the
	// "ingest" lane for every record a lenient scan drops.
	Tracer trace.Tracer
	// BaseOffset is added to Offset(): the absolute position of the
	// reader's first byte when resuming mid-file.
	BaseOffset int64
	// BaseLine is added to Line() for the same reason.
	BaseLine int
}

// maxLineBytes bounds a single input line, newline included. Longer
// lines are consumed but their record is treated as malformed — the bound
// that keeps a streaming parse at O(record) memory on any input.
const maxLineBytes = 16 << 20

// Scanner incrementally parses FASTA/FASTQ records. Use it like
// bufio.Scanner: for sc.Scan() { rec := sc.Record() }; err := sc.Err().
type Scanner struct {
	br     *bufio.Reader
	opts   ScanOptions
	format Format

	rec     Record
	nrec    int // records returned so far
	err     error
	eof     bool
	skipped SkipStats

	off    int64 // bytes consumed, relative to the reader's first byte
	lineNo int   // lines consumed, relative to the reader's first line

	pending    []byte // one pushed-back trimmed line (FASTA header lookahead)
	pendingSz  int64
	pendingBad bool // pushed-back line was over-long
	hasPending bool

	buf []byte // reusable line accumulator
}

// NewScanner returns a Scanner over r.
func NewScanner(r io.Reader, opts ScanOptions) *Scanner {
	return &Scanner{
		br:     bufio.NewReaderSize(r, 1<<16),
		opts:   opts,
		format: opts.Format,
	}
}

// Offset returns the absolute byte offset of the first byte not yet
// consumed by a returned record — after Scan returns true, the position
// where parsing of the next record will begin. Seeking a reopened file
// here and scanning again continues the record stream exactly.
func (s *Scanner) Offset() int64 { return s.opts.BaseOffset + s.off }

// Line returns the absolute 1-based number of the last consumed line.
func (s *Scanner) Line() int { return s.opts.BaseLine + s.lineNo }

// Skipped returns a copy of the lenient-mode skip tallies so far.
func (s *Scanner) Skipped() SkipStats { return s.skipped.Clone() }

// Record returns the record parsed by the last successful Scan. The
// record's slices are freshly allocated and safe to retain.
func (s *Scanner) Record() Record { return s.rec }

// Err returns the terminal error: nil after a clean end of input, a
// *ParseError after a strict-mode parse failure, or the underlying read
// error.
func (s *Scanner) Err() error { return s.err }

// CountSkip tallies one skipped record with the given reason and emits
// the same trace instant a parse-level skip does. Stream sources use it
// for records that parse but cannot be mapped (ReasonShortRead).
func (s *Scanner) CountSkip(reason string) {
	s.skipped.count(reason)
	if t := s.opts.Tracer; !trace.IsNoop(t) {
		t.Instant("ingest", "record-skipped",
			trace.Str("reason", reason),
			trace.Str("file", s.opts.Name),
			trace.I64("line", int64(s.Line())))
	}
}

// Scan advances to the next record. It returns false at end of input or
// on a terminal error (see Err).
func (s *Scanner) Scan() bool {
	if s.err != nil {
		return false
	}
	if s.format == FormatAuto {
		if !s.detectFormat() {
			return false
		}
	}
	if s.format == FormatFASTA {
		return s.scanFasta()
	}
	return s.scanFastq()
}

// detectFormat sniffs the leading non-blank line without consuming it.
func (s *Scanner) detectFormat() bool {
	l, size, long, ok := s.nextNonBlank()
	if !ok {
		return false // EOF or IO error; Err reports it
	}
	switch {
	case long:
		s.err = s.parseError(ReasonLineTooLong, "first line exceeds the line-length bound")
	case l[0] == '>':
		s.format = FormatFASTA
	case l[0] == '@':
		s.format = FormatFASTQ
	default:
		s.err = s.parseError(ReasonUnknownFormat,
			fmt.Sprintf("first line starts with %q, want '>' (FASTA) or '@' (FASTQ)", l[0]))
	}
	s.unread(l, size, long)
	return s.err == nil
}

// next reads one line, trims surrounding whitespace, and advances the
// offset and line counters by the raw line (including its newline). long
// reports that the raw line exceeded maxLineBytes (its content is
// discarded but its bytes are consumed and counted).
//
//repute:hotpath
func (s *Scanner) next() (line []byte, size int64, long, ok bool) {
	if s.hasPending {
		s.hasPending = false
		s.off += s.pendingSz
		s.lineNo++
		return s.pending, s.pendingSz, s.pendingBad, true
	}
	if s.eof || s.err != nil {
		return nil, 0, false, false
	}
	s.buf = s.buf[:0]
	for {
		chunk, err := s.br.ReadSlice('\n')
		size += int64(len(chunk))
		if !long {
			if len(s.buf)+len(chunk) > maxLineBytes {
				long = true
				s.buf = s.buf[:0]
			} else {
				s.buf = append(s.buf, chunk...)
			}
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		if err == io.EOF {
			s.eof = true
			if size == 0 {
				return nil, 0, false, false
			}
			break
		}
		if err != nil {
			s.err = fmt.Errorf("fastx: %s: %w", s.opts.Name, err)
			return nil, 0, false, false
		}
		break
	}
	s.off += size
	s.lineNo++
	return bytes.TrimSpace(s.buf), size, long, true
}

// unread pushes the last line returned by next back, rewinding the
// offset and line counters. At most one line may be pending.
func (s *Scanner) unread(line []byte, size int64, long bool) {
	s.pending, s.pendingSz, s.pendingBad = line, size, long
	s.hasPending = true
	s.off -= size
	s.lineNo--
}

// nextNonBlank skips blank lines.
func (s *Scanner) nextNonBlank() (line []byte, size int64, long, ok bool) {
	for {
		line, size, long, ok = s.next()
		if !ok {
			return nil, 0, false, false
		}
		if long || len(line) > 0 {
			return line, size, long, true
		}
	}
}

// parseError builds a ParseError at the current position.
func (s *Scanner) parseError(reason, detail string) *ParseError {
	return &ParseError{
		File:   s.opts.Name,
		Line:   s.Line(),
		Record: s.nrec,
		Reason: reason,
		Detail: detail,
	}
}

// fail handles one malformed record: in strict mode it stores the typed
// error and stops the scan; in lenient mode it tallies the skip, emits
// the trace instant, and reports that scanning may continue.
func (s *Scanner) fail(reason, detail string) (resume bool) {
	if !s.opts.Lenient {
		s.err = s.parseError(reason, detail)
		return false
	}
	s.CountSkip(reason)
	return true
}

// resyncTo discards lines until one starts with marker (which is pushed
// back) or the input ends — the lenient-mode recovery point after a
// structurally broken record. A quality line that happens to start with
// the marker can fool it; the policy is deterministic, which is what the
// checkpoint contract needs.
func (s *Scanner) resyncTo(marker byte) {
	for {
		l, size, long, ok := s.next()
		if !ok {
			return
		}
		if !long && len(l) > 0 && l[0] == marker {
			s.unread(l, size, long)
			return
		}
	}
}

// scanFasta parses one FASTA record: a '>' header and every following
// line up to the next header or EOF.
func (s *Scanner) scanFasta() bool {
	for {
		l, _, long, ok := s.nextNonBlank()
		if !ok {
			return false
		}
		if long {
			if !s.fail(ReasonLineTooLong, "header line exceeds the line-length bound") {
				return false
			}
			s.resyncTo('>')
			continue
		}
		if l[0] != '>' {
			if !s.fail(ReasonMissingHeader, fmt.Sprintf("sequence before first '>' header: %.32q", l)) {
				return false
			}
			s.resyncTo('>')
			continue
		}
		rec := Record{Name: string(bytes.TrimSpace(l[1:]))}
		bad := false
		for {
			l2, size, long2, ok := s.next()
			if !ok {
				break
			}
			if long2 {
				bad = true
				if !s.fail(ReasonLineTooLong, "sequence line exceeds the line-length bound") {
					return false
				}
				s.resyncTo('>')
				break
			}
			if len(l2) == 0 {
				continue
			}
			if l2[0] == '>' {
				s.unread(l2, size, long2)
				break
			}
			if bytes.IndexByte(l2, '>') >= 0 {
				// Mangled header: a mid-line '>' cannot round-trip
				// (wrapping may move it to a line start).
				bad = true
				if !s.fail(ReasonStrayHeader, fmt.Sprintf("stray '>' inside sequence line: %.32q", l2)) {
					return false
				}
				s.resyncTo('>')
				break
			}
			rec.Seq = appendSeq(rec.Seq, l2)
		}
		if bad {
			continue // the whole record was dropped
		}
		s.rec = rec
		s.nrec++
		return true
	}
}

// scanFastq parses one four-line FASTQ record: @name, sequence, +,
// quality (blank lines between fields are skipped).
func (s *Scanner) scanFastq() bool {
	for {
		hdr, _, long, ok := s.nextNonBlank()
		if !ok {
			return false
		}
		if long {
			if !s.fail(ReasonLineTooLong, "header line exceeds the line-length bound") {
				return false
			}
			s.resyncTo('@')
			continue
		}
		if hdr[0] != '@' {
			if !s.fail(ReasonMissingHeader, fmt.Sprintf("expected @header, got %.32q", hdr)) {
				return false
			}
			s.resyncTo('@')
			continue
		}
		name := string(hdr[1:])

		seq, _, long, ok := s.nextNonBlank()
		if !ok {
			if s.err == nil {
				s.fail(ReasonTruncatedRecord, "missing sequence")
			}
			return false
		}
		if long {
			if !s.fail(ReasonLineTooLong, "sequence line exceeds the line-length bound") {
				return false
			}
			s.resyncTo('@')
			continue
		}
		seqCopy := append([]byte(nil), seq...)

		plus, _, long, ok := s.nextNonBlank()
		if !ok {
			if s.err == nil {
				s.fail(ReasonTruncatedRecord, "missing '+' separator")
			}
			return false
		}
		if long || plus[0] != '+' {
			if !s.fail(ReasonMissingSeparator, fmt.Sprintf("expected '+' separator, got %.32q", plus)) {
				return false
			}
			s.resyncTo('@')
			continue
		}

		qual, _, long, ok := s.nextNonBlank()
		if !ok {
			if s.err == nil {
				s.fail(ReasonTruncatedRecord, "missing quality")
			}
			return false
		}
		if long {
			if !s.fail(ReasonLineTooLong, "quality line exceeds the line-length bound") {
				return false
			}
			s.resyncTo('@')
			continue
		}
		if len(qual) != len(seqCopy) {
			if !s.fail(ReasonLengthMismatch,
				fmt.Sprintf("quality length %d != sequence length %d", len(qual), len(seqCopy))) {
				return false
			}
			continue // all four lines consumed; next line should be a header
		}

		s.rec = Record{Name: name, Seq: seqCopy, Qual: append([]byte(nil), qual...)}
		s.nrec++
		return true
	}
}
