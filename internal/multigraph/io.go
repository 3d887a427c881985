package multigraph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"unsafe"

	"repro/internal/dict"
	"repro/internal/rdf"
)

// Snapshot format: a compact binary serialization of the data multigraph
// (dictionaries, adjacency, attributes). Loading a snapshot skips the
// N-Triples parsing of the offline stage; the index ensemble I is rebuilt
// deterministically from the graph on load.
//
// Layout (all integers unsigned varints unless noted):
//
//	magic "AMBG" + version byte
//	vertex dictionary:    count, then len-prefixed strings
//	edge-type dictionary: count, then len-prefixed strings
//	attribute dictionary: count, then per attribute
//	           (predicate, lexical, datatype, lang) string tuples
//	numTriples
//	adjacency: per vertex: out-degree, then per neighbour:
//	           target id, type count, delta-encoded sorted type ids
//	attributes: per vertex: count, delta-encoded sorted attribute ids
//	crc32 (IEEE, fixed 4-byte little endian) over everything prior
//
// Version 2 carries typed literals. Version 1 (folded, untyped literals)
// is refused: rebuild such a snapshot from its N-Triples source.
const (
	snapshotMagic   = "AMBG"
	snapshotVersion = 2
)

// encoder writes snapshot fields through a bufio.Writer, which keeps the
// first write error and reports it from Flush.
type encoder struct {
	w   *bufio.Writer
	buf [binary.MaxVarintLen64]byte
}

func (e *encoder) uvarint(v uint64) { e.w.Write(binary.AppendUvarint(e.buf[:0], v)) }

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.w.WriteString(s)
}

// writeIDs writes a sorted id list: its length, then its ids as deltas.
func writeIDs[T ~uint32](e *encoder, list []T) {
	e.uvarint(uint64(len(list)))
	prev := uint64(0)
	for _, id := range list {
		e.uvarint(uint64(id) - prev)
		prev = uint64(id)
	}
}

// Encode writes the graph snapshot to w.
func (g *Graph) Encode(w io.Writer) error {
	crc := crc32.NewIEEE()
	e := &encoder{w: bufio.NewWriterSize(io.MultiWriter(w, crc), 1<<20)}
	e.w.WriteString(snapshotMagic)
	e.w.WriteByte(snapshotVersion)
	// Dictionaries, as Build or Decode left them.
	d := &g.terms
	e.uvarint(uint64(d.Vertices.Len()))
	for i := 0; i < d.Vertices.Len(); i++ {
		e.str(d.Vertices.Value(uint32(i)))
	}
	e.uvarint(uint64(d.EdgeTypes.Len()))
	for i := 0; i < d.EdgeTypes.Len(); i++ {
		e.str(d.EdgeTypes.Value(uint32(i)))
	}
	e.uvarint(uint64(d.Attrs.Len()))
	for i := 0; i < d.Attrs.Len(); i++ {
		a := d.Attr(dict.AttrID(i))
		e.str(a.Predicate)
		e.str(a.Lexical)
		e.str(a.Datatype)
		e.str(a.Lang)
	}
	e.uvarint(uint64(g.numTriples))
	// Adjacency (out side only, by neighbour; the in side is reconstructed).
	var m MultiEdges
	for v := 0; v < g.NumVertices(); v++ {
		m.Regroup(g.Out(dict.VertexID(v)))
		e.uvarint(uint64(m.Len()))
		for i := 0; i < m.Len(); i++ {
			e.uvarint(uint64(m.V(i)))
			writeIDs(e, m.Types(i))
		}
	}
	// Attributes.
	for v := 0; v < g.NumVertices(); v++ {
		writeIDs(e, g.Attrs(dict.VertexID(v)))
	}
	// Trailer CRC over everything flushed so far.
	if err := e.w.Flush(); err != nil {
		return err
	}
	_, err := w.Write(binary.LittleEndian.AppendUint32(nil, crc.Sum32()))
	return err
}

// Decode reads a graph snapshot written by Encode. The snapshot is read
// whole into one buffer and its trailer CRC checked before anything is
// decoded, so peak memory is about the snapshot's size plus the graph's.
// Bytes after the trailer are an error: a snapshot file holds one snapshot.
func Decode(r io.Reader) (*Graph, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("multigraph: reading snapshot: %w", err)
	}
	head := len(snapshotMagic) + 1
	if len(data) < head+4 {
		return nil, fmt.Errorf("multigraph: snapshot of %d bytes is too short", len(data))
	}
	if string(data[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("multigraph: bad snapshot magic %q", data[:len(snapshotMagic)])
	}
	if version := data[len(snapshotMagic)]; version != snapshotVersion {
		return nil, fmt.Errorf("multigraph: unsupported snapshot version %d (this build reads version %d); rebuild the snapshot from the N-Triples source",
			version, snapshotVersion)
	}
	body := data[:len(data)-4]
	if got, want := binary.LittleEndian.Uint32(data[len(body):]), crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("multigraph: snapshot checksum mismatch (got %08x, want %08x)", got, want)
	}
	d := &decoder{body: body, text: unsafe.String(unsafe.SliceData(body), len(body)), pos: head}
	g, err := d.graph()
	if err == nil && d.pos != len(body) {
		return nil, fmt.Errorf("multigraph: %d bytes after the snapshot's last section", len(body)-d.pos)
	}
	return g, err
}

// readAll reads r to EOF into one buffer, sized up front when r knows its
// length: a file from Stat, as os.ReadFile does, or a bytes.Reader or
// bytes.Buffer from Len.
func readAll(r io.Reader) ([]byte, error) {
	size := 0
	switch r := r.(type) {
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			size = int(fi.Size())
		}
	case interface{ Len() int }:
		size = r.Len()
	}
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// decoder walks a CRC-checked snapshot body. text views body as a string
// (body is never written), so dictionary strings are cut from it without
// a copy and the dictionaries copy each one once, into their arenas.
type decoder struct {
	body []byte
	text string
	pos  int
	err  error // first failure; later reads return zero values
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	if d.pos < len(d.body) && d.body[d.pos] < 0x80 { // one byte: most ids, deltas and counts
		d.pos++
		return uint64(d.body[d.pos-1])
	}
	v, n := binary.Uvarint(d.body[d.pos:])
	if n <= 0 {
		d.err = fmt.Errorf("multigraph: bad varint at snapshot offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

// count reads a count of items that each take at least size bytes, and
// fails when the rest of the body cannot hold them: no count sizes an
// allocation beyond what the input can fill.
func (d *decoder) count(size int, what string) int {
	n := d.uvarint()
	if n > uint64(d.left()/size) {
		d.fail("multigraph: %s %d exceeds the %d snapshot bytes left", what, n, d.left())
		return 0
	}
	return int(n)
}

func (d *decoder) left() int { return len(d.body) - d.pos }

func (d *decoder) str() string {
	n := d.count(1, "string length")
	s := d.text[d.pos : d.pos+n]
	d.pos += n
	return s
}

// strBytes returns the total length of field f of the next n tuples of k
// strings, read ahead without consuming them, so that a dictionary can
// size its arena once. A malformed length ends the sum early; the walk
// that reads the strings then reports it.
func (d *decoder) strBytes(n, k, f int) int {
	pos, err, total := d.pos, d.err, 0
	for i := 0; i < n*k && d.err == nil; i++ {
		if s := d.str(); i%k == f {
			total += len(s)
		}
	}
	d.pos, d.err = pos, err
	return total
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// readIDs reads k delta-encoded, strictly ascending ids below n and
// appends them to dst; with a nil dst it only checks them.
func readIDs[T ~uint32](d *decoder, dst []T, k, n int, what string) []T {
	acc := uint64(0)
	for i := 0; i < k && d.err == nil; i++ {
		delta := d.uvarint()
		if (i > 0 && delta == 0) || delta >= uint64(n)-acc {
			d.fail("multigraph: %s ids not ascending below %d", what, n)
			break
		}
		acc += delta
		if dst != nil {
			dst = append(dst, T(acc))
		}
	}
	return dst
}

// sections decodes the adjacency and attribute sections. Without es it
// only checks them, counts the edge labels of each type into byType[t+1]
// and the attributes, each count bounded by the bytes the walk consumes,
// so that the arrays can be allocated once at their exact size before a
// second walk, which then cannot fail, fills them. That walk places each
// edge at its type's cursor byType[t], leaving es in (type, source,
// target) order, and fills g's attribute arrays.
func (d *decoder) sections(g *Graph, es []edge, byType []uint32, nV, nT, nA int) (labels, attrs int) {
	var tbuf [16]dict.EdgeType
	ts := tbuf[:0]
	for v := 0; v < nV && d.err == nil; v++ {
		prevTarget := -1
		// A neighbour takes at least three bytes: target, cardinality, type.
		for range d.count(3, "out-degree") {
			target := d.uvarint()
			if target >= uint64(nV) {
				d.fail("multigraph: edge target %d out of range", target)
			} else if int(target) <= prevTarget {
				d.fail("multigraph: adjacency of %d not sorted", v)
			}
			k := d.count(1, "multi-edge cardinality")
			if k == 0 || k > nT {
				d.fail("multigraph: bad multi-edge cardinality %d", k)
			}
			if d.err != nil {
				return
			}
			prevTarget, labels = int(target), labels+k
			ts = readIDs(d, ts[:0], k, nT, "edge-type")
			for _, t := range ts {
				if es == nil {
					byType[t+1]++
					continue
				}
				es[byType[t]] = edge{dict.VertexID(v), dict.VertexID(target), t}
				byType[t]++
			}
		}
	}
	for v := 0; v < nV && d.err == nil; v++ {
		k := d.count(1, "attribute count")
		attrs += k
		g.attrIDs = readIDs(d, g.attrIDs, k, nA, "attribute")
		if es != nil {
			g.attrOff[v+1] = uint32(len(g.attrIDs))
		}
	}
	if labels > math.MaxUint32 || attrs > math.MaxUint32 {
		d.fail("multigraph: %d edge labels or %d attributes exceed the graph's 32-bit offsets", labels, attrs)
	}
	return labels, attrs
}

// graph decodes everything after the header; on error it returns no graph.
func (d *decoder) graph() (*Graph, error) {
	g := &Graph{}
	// Dictionaries: intern in id order, so dense ids are reproduced. Every
	// vertex takes at least three bytes: its IRI's length, its out-degree
	// and its attribute count.
	nV := d.count(3, "vertex count")
	g.Dicts.Vertices.Reserve(nV)
	g.Dicts.Vertices.ReserveBytes(d.strBytes(nV, 1, 0))
	for i := 0; i < nV && d.err == nil; i++ {
		s := d.str()
		if id := g.Dicts.InternVertex(s); int(id) != i {
			d.fail("multigraph: duplicate vertex %q in snapshot", s)
		}
	}
	nT := d.count(1, "edge-type count")
	g.Dicts.EdgeTypes.Reserve(nT)
	g.Dicts.EdgeTypes.ReserveBytes(d.strBytes(nT, 1, 0))
	for i := 0; i < nT && d.err == nil; i++ {
		s := d.str()
		if id := g.Dicts.InternEdgeType(s); int(id) != i {
			d.fail("multigraph: duplicate edge type %q in snapshot", s)
		}
	}
	nA := d.count(4, "attribute count")
	g.Dicts.Attrs.Reserve(nA)
	g.Dicts.Attrs.ReserveBytes(d.strBytes(nA, 4, 1))
	var last dict.Attribute
	allNew := g.Dicts.Attrs.InternAll(func(yield func(dict.Attribute) bool) {
		for i := 0; i < nA && d.err == nil; i++ {
			p, l, dt, lang := d.str(), d.str(), d.str(), d.str()
			if dt != "" && lang != "" {
				d.fail("multigraph: attribute %d has both datatype and language tag", i)
			}
			last = dict.AttributeOf(p, rdf.Term{Kind: rdf.Literal, Value: l, Datatype: dt, Lang: lang})
			if d.err != nil || !yield(last) {
				return
			}
		}
	})
	if !allNew {
		d.fail("multigraph: duplicate attribute %v in snapshot", last)
	}
	numTriples := d.uvarint()
	if numTriples > math.MaxInt {
		d.fail("multigraph: triple count %d out of range", numTriples)
	}
	g.numTriples = int(numTriples)
	if d.err != nil {
		return nil, d.err
	}
	// Adjacency and attributes: a checking walk sizes the arrays, a
	// second walk fills them, and both sides are laid out from the edges.
	mark := d.pos
	byType := make([]uint32, max(nT+1, 2*nV+1)) // then the layout's scratch
	labels, attrs := d.sections(&Graph{}, nil, byType, nV, nT, nA)
	if d.err != nil {
		return nil, d.err
	}
	d.pos = mark
	for t := 1; t <= nT; t++ {
		byType[t] += byType[t-1]
	}
	es := make([]edge, labels)
	g.allocAttrs(nV, nA, attrs)
	if d.sections(g, es, byType, nV, nT, nA); d.err != nil {
		return nil, d.err
	}
	g.layout(nV, es, byType)
	g.invertAttrs()
	g.terms = g.Dicts.Snapshot()
	return g, nil
}
