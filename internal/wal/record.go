package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/rdf"
)

// Kind discriminates the logged operations.
type Kind uint8

const (
	// KindMutation is one applied write batch: dels removed, adds inserted.
	KindMutation Kind = 1
	// KindClear wipes the store to an empty generation (SPARQL CLEAR).
	KindClear Kind = 2
)

// String reports the kind name, for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindMutation:
		return "mutation"
	case KindClear:
		return "clear"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Record is one logged operation. Seq is the log sequence number: assigned
// by Append, monotonically increasing across restarts, never reused. Epoch
// is the store's data version after the operation applied — informational,
// for diagnostics and tests; replay ordering relies on Seq alone.
type Record struct {
	Seq   uint64
	Epoch uint64
	Kind  Kind
	// Adds and Dels are the batch for KindMutation; both empty for
	// KindClear.
	Adds, Dels []rdf.Triple
}

// crcTable is the Castagnoli polynomial, the standard choice for storage
// checksums (hardware-accelerated on amd64/arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frameHeaderSize is the fixed per-record framing overhead: a 4-byte
// little-endian payload length followed by a 4-byte CRC32-C of the payload.
const frameHeaderSize = 8

// maxPayload bounds a single record's encoded payload. Anything larger in
// a frame header is treated as corruption, so a torn length field cannot
// make replay attempt a gigantic allocation.
const maxPayload = 1 << 30

// appendTerm encodes a term value as uvarint length + bytes.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// Object term codes. The original format used rdf.TermKind directly
// (0 = IRI, 1 = plain literal); the typed-term codes extend it without
// breaking replay of logs written before datatypes and language tags were
// carried: old records use only codes 0 and 1, and the new encoder still
// emits exactly those bytes for IRIs and plain literals.
const (
	objIRI     = 0 // value
	objLiteral = 1 // lexical form, plain (xsd:string)
	objTyped   = 2 // lexical form + datatype IRI
	objLang    = 3 // lexical form + language tag
	objBlank   = 4 // blank label (with "_:" prefix)
)

// appendTriple encodes S (IRI or blank label), P (IRI value), then O as a
// kind code plus value (plus the datatype or language tag for typed
// literals). Subjects are resources by construction (mutations are
// validated before logging), and blank labels are self-describing via
// their "_:" prefix, so S and P need no kind code.
func appendTriple(buf []byte, t rdf.Triple) []byte {
	buf = appendString(buf, t.S.Value)
	buf = appendString(buf, t.P.Value)
	switch {
	case t.O.Kind == rdf.Blank:
		buf = append(buf, objBlank)
		return appendString(buf, t.O.Value)
	case t.O.Kind == rdf.Literal && t.O.Lang != "":
		buf = append(buf, objLang)
		buf = appendString(buf, t.O.Value)
		return appendString(buf, t.O.Lang)
	case t.O.Kind == rdf.Literal && t.O.Datatype != "":
		buf = append(buf, objTyped)
		buf = appendString(buf, t.O.Value)
		return appendString(buf, t.O.Datatype)
	case t.O.Kind == rdf.Literal:
		buf = append(buf, objLiteral)
		return appendString(buf, t.O.Value)
	default:
		buf = append(buf, objIRI)
		return appendString(buf, t.O.Value)
	}
}

// encodePayload renders the record payload (everything inside the frame):
// kind, seq, epoch, then the two triple lists.
func encodePayload(buf []byte, r *Record) []byte {
	buf = append(buf, byte(r.Kind))
	buf = binary.AppendUvarint(buf, r.Seq)
	buf = binary.AppendUvarint(buf, r.Epoch)
	buf = binary.AppendUvarint(buf, uint64(len(r.Adds)))
	for _, t := range r.Adds {
		buf = appendTriple(buf, t)
	}
	buf = binary.AppendUvarint(buf, uint64(len(r.Dels)))
	for _, t := range r.Dels {
		buf = appendTriple(buf, t)
	}
	return buf
}

// FrameHeaderSize is the exported framing overhead, for readers that
// walk raw frame bytes (the replication stream ships frames verbatim).
const FrameHeaderSize = frameHeaderSize

// DecodeFrame parses the frame at the start of b, validating its length
// bound and CRC32-C, and returns the decoded record plus the frame's
// total byte length. Any torn, truncated, or corrupt frame is an error —
// callers treat it as the end of the valid prefix (replay) or as a
// damaged transfer to retry (replication).
func DecodeFrame(b []byte) (Record, int, error) {
	if len(b) < frameHeaderSize {
		return Record{}, 0, fmt.Errorf("wal: truncated frame header (%d bytes)", len(b))
	}
	n := int64(binary.LittleEndian.Uint32(b))
	crc := binary.LittleEndian.Uint32(b[4:])
	if n > maxPayload || frameHeaderSize+n > int64(len(b)) {
		return Record{}, 0, fmt.Errorf("wal: frame length %d exceeds available %d bytes", n, len(b))
	}
	payload := b[frameHeaderSize : frameHeaderSize+n]
	if crc32.Checksum(payload, crcTable) != crc {
		return Record{}, 0, fmt.Errorf("wal: frame checksum mismatch")
	}
	rec, err := decodePayload(payload)
	if err != nil {
		return Record{}, 0, err
	}
	return rec, frameHeaderSize + int(n), nil
}

// encodeFrame renders the full frame: length, CRC32-C, payload.
func encodeFrame(buf []byte, r *Record) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	buf = encodePayload(buf, r)
	payload := buf[start+frameHeaderSize:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, crcTable))
	return buf
}

// byteReader walks an in-memory payload.
type byteReader struct {
	b   []byte
	off int
	err error
}

func (r *byteReader) fail(msg string) {
	if r.err == nil {
		r.err = fmt.Errorf("wal: %s at payload offset %d", msg, r.off)
	}
}

func (r *byteReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

func (r *byteReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail("truncated byte")
		return 0
	}
	c := r.b[r.off]
	r.off++
	return c
}

func (r *byteReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail("string length past payload end")
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *byteReader) triple() rdf.Triple {
	s := r.str()
	p := r.str()
	code := r.byte()
	var o rdf.Term
	switch code {
	case objIRI:
		o = rdf.NewIRI(r.str())
	case objLiteral:
		o = rdf.NewLiteral(r.str())
	case objTyped:
		lex := r.str()
		o = rdf.NewTypedLiteral(lex, r.str())
	case objLang:
		lex := r.str()
		o = rdf.NewLangLiteral(lex, r.str())
	case objBlank:
		o = rdf.NewResource(r.str())
	default:
		r.fail("bad object term kind")
		return rdf.Triple{}
	}
	if r.err != nil {
		return rdf.Triple{}
	}
	return rdf.Triple{S: rdf.NewResource(s), P: rdf.NewIRI(p), O: o}
}

// decodePayload parses one record payload. It returns an error on any
// malformed content; the caller treats that as the end of the valid prefix.
func decodePayload(payload []byte) (Record, error) {
	r := byteReader{b: payload}
	rec := Record{Kind: Kind(r.byte())}
	if rec.Kind != KindMutation && rec.Kind != KindClear {
		return rec, fmt.Errorf("wal: unknown record kind %d", rec.Kind)
	}
	rec.Seq = r.uvarint()
	rec.Epoch = r.uvarint()
	nAdds := r.uvarint()
	if r.err != nil {
		return rec, r.err
	}
	if nAdds > uint64(len(payload)) {
		return rec, fmt.Errorf("wal: add count %d exceeds payload", nAdds)
	}
	if nAdds > 0 {
		rec.Adds = make([]rdf.Triple, 0, nAdds)
	}
	for i := uint64(0); i < nAdds; i++ {
		rec.Adds = append(rec.Adds, r.triple())
		if r.err != nil {
			return rec, r.err
		}
	}
	nDels := r.uvarint()
	if r.err != nil {
		return rec, r.err
	}
	if nDels > uint64(len(payload)) {
		return rec, fmt.Errorf("wal: del count %d exceeds payload", nDels)
	}
	if nDels > 0 {
		rec.Dels = make([]rdf.Triple, 0, nDels)
	}
	for i := uint64(0); i < nDels; i++ {
		rec.Dels = append(rec.Dels, r.triple())
		if r.err != nil {
			return rec, r.err
		}
	}
	if r.off != len(payload) {
		return rec, fmt.Errorf("wal: %d trailing payload bytes", len(payload)-r.off)
	}
	return rec, nil
}
