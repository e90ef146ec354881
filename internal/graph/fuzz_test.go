package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
)

// FuzzReadEdgeList checks the text parser never panics and that anything
// it accepts round-trips through a graph build.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# comment\n\n3 4 extra\n")
	f.Add("a b\n")
	f.Add("-1 5\n")
	f.Add("99999999999999999999 1\n")
	f.Add("0 100000000000\n")
	f.Add("268435455 268435456\n")
	f.Fuzz(func(t *testing.T, input string) {
		edges, n, err := ReadEdgeList(strings.NewReader(input))
		if err != nil {
			return
		}
		if n > maxReadCount {
			t.Fatalf("accepted n=%d past the %d-vertex limit", n, maxReadCount)
		}
		for _, e := range edges {
			if e.U < 0 || e.V < 0 || e.U >= n || e.V >= n {
				t.Fatalf("accepted out-of-range edge %v with n=%d", e, n)
			}
		}
		// CSR construction allocates O(n); the parser accepts sparse ids
		// up to 2²⁸, so cap before materializing.
		if n > 1<<20 {
			return
		}
		g, err := NewUndirected(n, edges)
		if err != nil {
			t.Fatalf("parsed edges failed to build: %v", err)
		}
		if !g.IsSymmetric() {
			t.Fatal("built graph not symmetric")
		}
	})
}

// FuzzBinaryRoundTrip checks ReadBinary on arbitrary bytes never panics,
// and on valid payloads reproduces the writer's graph.
func FuzzBinaryRoundTrip(f *testing.F) {
	g, _ := NewUndirected(4, []Edge{{0, 1}, {1, 2}, {3, 3}})
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add(make([]byte, 23))
	// Truncations of a valid payload: mid-header, exactly at the header
	// boundary, and mid-record — all must error, never panic.
	f.Add(buf.Bytes()[:12])
	f.Add(buf.Bytes()[:binaryHeaderSize])
	f.Add(buf.Bytes()[:binaryHeaderSize+binaryRecordSize-3])
	// Wrong magic and a header promising more records than follow.
	corrupt := bytes.Clone(buf.Bytes())
	corrupt[0] ^= 0xff
	f.Add(corrupt)
	inflated := bytes.Clone(buf.Bytes())
	binary.LittleEndian.PutUint64(inflated[16:24], 1<<20)
	f.Add(inflated)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever parses must re-serialize to an equal graph.
		var out bytes.Buffer
		if err := got.WriteBinary(&out); err != nil {
			t.Fatalf("re-serialize: %v", err)
		}
		again, err := ReadBinary(&out)
		if err != nil || !again.Equal(got) {
			t.Fatalf("binary round trip unstable: %v", err)
		}
	})
}

// TestReadBinaryErrors pins the contract the fuzz target can only probe:
// truncated and malformed binary inputs fail with errors that name the
// offending byte offset and wrap io.ErrUnexpectedEOF for truncation.
func TestReadBinaryErrors(t *testing.T) {
	g, err := NewUndirected(5, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	cases := []struct {
		name     string
		data     []byte
		wantEOF  bool
		wantText string // substring the error must carry
	}{
		{"empty input", nil, true, `field "magic" at offset 0`},
		{"mid-header cut", valid[:12], true, `field "n" at offset 8`},
		{"header only, edges promised", valid[:binaryHeaderSize], true, "edge 0 of 4 at offset 24"},
		{"mid-record cut", valid[:binaryHeaderSize+binaryRecordSize+5], true, "edge 1 of 4 at offset 40"},
		{"bad magic", append([]byte{1, 2, 3, 4, 5, 6, 7, 8}, valid[8:]...), false, "bad magic"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadBinary(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("want error, got nil")
			}
			if tc.wantEOF != errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("errors.Is(err, io.ErrUnexpectedEOF) = %v, want %v (err: %v)",
					!tc.wantEOF, tc.wantEOF, err)
			}
			if !strings.Contains(err.Error(), tc.wantText) {
				t.Errorf("error %q does not mention %q", err, tc.wantText)
			}
		})
	}

	// An inflated edge count over a complete-looking stream is truncation
	// at the first missing record, not an allocation blow-up.
	inflated := bytes.Clone(valid)
	binary.LittleEndian.PutUint64(inflated[16:24], 1<<20)
	if _, err := ReadBinary(bytes.NewReader(inflated)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("inflated header: want io.ErrUnexpectedEOF, got %v", err)
	}
}
