package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// ReadEdgeList parses a whitespace-separated text edge list: one "u v" pair
// per line, '#' or '%' comment lines and blank lines ignored. It returns
// the edges and the implied vertex count (max endpoint + 1). Negative
// endpoints are an error.
func ReadEdgeList(r io.Reader) (edges []Edge, n int64, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, 0, fmt.Errorf("graph: line %d: need two endpoints, got %q", line, text)
		}
		u, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, 0, fmt.Errorf("graph: line %d: bad endpoint %q: %v", line, fields[0], err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, 0, fmt.Errorf("graph: line %d: bad endpoint %q: %v", line, fields[1], err)
		}
		if u < 0 || v < 0 {
			return nil, 0, fmt.Errorf("graph: line %d: negative endpoint in %q", line, text)
		}
		edges = append(edges, Edge{u, v})
		if u+1 > n {
			n = u + 1
		}
		if v+1 > n {
			n = v + 1
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("graph: reading edge list: %w", err)
	}
	return edges, n, nil
}

// WriteEdgeList writes the undirected edges of g as text, one canonical
// "u v" pair per line, preceded by a comment header with n and m.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# kronlab edge list n=%d m=%d\n", g.n, g.NumEdges()); err != nil {
		return err
	}
	var werr error
	g.Edges(func(u, v int64) bool {
		if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
			werr = err
			return false
		}
		return true
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// binaryMagic identifies the kronlab binary edge-list format.
const binaryMagic = uint64(0x4b524f4e4c414201) // "KRONLAB\x01"

// maxBinaryCount caps the vertex and edge counts ReadBinary will accept
// (2²⁸ ≈ 268M): CSR construction allocates O(n), so a corrupt or hostile
// header must not be able to demand an absurd allocation (found by
// FuzzBinaryRoundTrip). Larger graphs should be sharded or kept as text.
const maxBinaryCount = int64(1) << 28

// WriteBinary writes g's undirected edge list in a compact little-endian
// binary format: magic, n, m, then m (u,v) int64 pairs.
func (g *Graph) WriteBinary(w io.Writer) error {
	le := binary.LittleEndian
	buf := make([]byte, 0, binaryChunk)
	buf = le.AppendUint64(buf, binaryMagic)
	buf = le.AppendUint64(buf, uint64(g.n))
	buf = le.AppendUint64(buf, uint64(g.NumEdges()))
	var werr error
	g.Edges(func(u, v int64) bool {
		if len(buf) > binaryChunk-binaryRecordSize {
			if _, werr = w.Write(buf); werr != nil {
				return false
			}
			buf = buf[:0]
		}
		buf = le.AppendUint64(buf, uint64(u))
		buf = le.AppendUint64(buf, uint64(v))
		return true
	})
	if werr != nil {
		return werr
	}
	_, err := w.Write(buf)
	return err
}

// binaryHeaderSize is the byte length of the WriteBinary header
// (magic, n, m) and binaryRecordSize that of one (u, v) edge record.
// WriteBinary and ReadBinary move records binaryChunk bytes at a time.
const (
	binaryHeaderSize = 24
	binaryRecordSize = 16
	binaryChunk      = 256 * binaryRecordSize
)

// ReadBinary reads the format produced by WriteBinary and returns the
// undirected graph. Malformed input fails with a wrapped error naming the
// byte offset of the offending header field or edge record; truncation
// anywhere — including a clean EOF where more records were promised —
// surfaces as io.ErrUnexpectedEOF so callers can distinguish a cut-off
// file from other corruption with errors.Is.
func ReadBinary(r io.Reader) (*Graph, error) {
	le := binary.LittleEndian
	buf := make([]byte, binaryChunk)
	if got, err := io.ReadFull(r, buf[:binaryHeaderSize]); err != nil {
		hdrFields := [3]string{"magic", "n", "m"}
		return nil, fmt.Errorf("graph: binary header field %q at offset %d: %w",
			hdrFields[got/8], got/8*8, noEOF(err))
	}
	magic, n, m := le.Uint64(buf), le.Uint64(buf[8:]), le.Uint64(buf[16:])
	if magic != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %#x at offset 0", magic)
	}
	if int64(n) < 0 || int64(n) > maxBinaryCount || int64(m) < 0 || int64(m) > maxBinaryCount {
		return nil, fmt.Errorf("graph: implausible binary header n=%d m=%d", n, m)
	}
	// Grow incrementally so a truncated stream with an inflated header
	// fails on read, not on allocation.
	edges := make([]Edge, 0, min(m, 1<<20))
	for i := uint64(0); i < m; {
		chunk := buf[:min(m-i, binaryChunk/binaryRecordSize)*binaryRecordSize]
		if got, err := io.ReadFull(r, chunk); err != nil {
			bad := i + uint64(got/binaryRecordSize)
			return nil, fmt.Errorf("graph: binary edge %d of %d at offset %d: %w",
				bad, m, binaryHeaderSize+bad*binaryRecordSize, noEOF(err))
		}
		for rec := chunk; len(rec) > 0; rec = rec[binaryRecordSize:] {
			edges = append(edges, Edge{int64(le.Uint64(rec)), int64(le.Uint64(rec[8:]))})
		}
		i += uint64(len(chunk) / binaryRecordSize)
	}
	g, err := NewUndirected(int64(n), edges)
	if err != nil {
		return nil, fmt.Errorf("graph: binary edge list invalid: %w", err)
	}
	return g, nil
}

// noEOF maps a bare io.EOF to io.ErrUnexpectedEOF: inside ReadBinary
// every read is for bytes the header promised, so running out of input at
// a field or record boundary is truncation, not a normal end of stream.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// LoadUndirected reads a text edge list from path and returns the
// symmetrized graph.
func LoadUndirected(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	edges, n, err := ReadEdgeList(f)
	if err != nil {
		return nil, err
	}
	return NewUndirected(n, edges)
}

// SaveEdgeList writes g's text edge list to path, creating or truncating
// the file.
func (g *Graph) SaveEdgeList(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.WriteEdgeList(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
