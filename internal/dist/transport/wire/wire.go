// Package wire is the frame codec of the TCP transport: edge batches,
// serialized as a fixed header followed by raw store records, and the
// small frames of the handshake, control links and heartbeats. Edge
// buffers are already wire-shaped — []graph.Edge is pairs of int64
// endpoints, and internal/store's 16-byte record codec is the on-disk
// format — so a batch frame is header + store.PutRecord per edge, with no
// intermediate representation between the buffer and the socket.
//
// Frame layout (little-endian throughout):
//
//	offset  size  field
//	     0     4  magic  0x4b524f4e ("KRON")
//	     4     1  kind   (Batch, Control, Hello, Ack, Ping)
//	     5     1  flags  bit0 = EOF (end of sender's stream this exchange)
//	     6     2  version (protocol version, checked at handshake AND on
//	              every frame so a mid-stream impostor fails loudly)
//	     8     4  from   (global source rank, or proc index for control)
//	    12     4  dest   (global destination rank, or proc index)
//	    16     8  epoch  (run attempt the frame belongs to)
//	    24     8  tile   (plan tile framing the payload; int64)
//	    32     4  payloadLen (bytes following the header)
//	    36     …  payload: Batch → count·store.RecordSize edge records;
//	              Control → opaque control bytes (JSON in cluster mode)
//
// Decoding is defensive at every step: short header, bad magic, version
// skew, payload over MaxPayload, or a Batch payload that is not a
// multiple of store.RecordSize are all errors, never panics — the fuzz
// target in wire_test.go holds the codec to that.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"kronlab/internal/graph"
	"kronlab/internal/store"
)

// Version is the transport protocol version. Peers with different
// versions refuse each other at handshake; every frame repeats it so
// skew introduced mid-stream is caught too. Version 2: plan hashes
// cover factor chains (dist.PlanHash folds the chain dimensions and
// per-tile tail shapes), so a v1 peer's hash of the "same" plan would
// not match — the version bump turns that silent mismatch into a loud
// handshake refusal. Version 3: plan hashes fold the per-tile stream
// windows (Tile.Skip/Take, seekable generation), shifting every plan's
// hash — same posture, a version refusal instead of a baffling plan
// mismatch against a v2 peer. Version 4: the source owner map changed
// (store.BySource keeps the hash's high bits). Under a source owner each
// process computes its own share of every tile from the map alone and
// nothing crosses the wire that could expose a disagreement, so a peer
// built before the map changed must be refused here, at the handshake,
// rather than found out by tiles that never commit. Version 5: the
// teardown collective is gone (kinds 3 and 4 are retired), so a v4 head
// would wait on a collective a v5 worker never sends. Version 6: the
// source owner map changed again (store.BySource sums the Fibonacci hashes
// of the source's set bits, so that it adds over disjoint bits), with
// version 4's posture: a v5 peer would place every source the old way and
// nothing on the wire would show it. Version 7: the engine binds the source
// map to the plan's innermost factor, padding its digit to a power of two
// (store.SourceMap), so every chain whose innermost vertex count is not a
// power of two places anew — the same posture again. Version 8: each
// process resumes its ranks at its own stored counts, so a begin carries
// no prefixes and a report carries absolute per-(rank, tile) counts where
// it carried the attempt's deltas; a v7 head would fold a v8 report as
// deltas and resume a v8 worker nowhere, so it is refused here.
const Version = 8

// Magic opens every frame — a cheap desynchronization tripwire: if a
// torn or corrupt frame shifts the stream, the next header read fails
// on magic instead of misparsing record bytes as a header.
const Magic = 0x4b524f4e // "KRON"

// HeaderSize is the byte length of the fixed frame header.
const HeaderSize = 36

// MaxPayload bounds a frame's payload so a corrupt or hostile length
// field cannot make the receiver allocate gigabytes. 1<<24 (16 MiB) is
// ~1M edges — three orders of magnitude above the default batch size.
const MaxPayload = 1 << 24

// Frame kinds. 3 and 4 were the teardown collective's reduce and release,
// retired in version 5; a frame of either kind is a protocol error.
const (
	KindBatch   = 1 // edge batch (or bare EOF marker when flags&FlagEOF)
	KindControl = 2 // cluster-mode control message (opaque payload)
	KindHello   = 5 // connection handshake: dialer → listener
	KindAck     = 6 // handshake accept: listener → dialer
	KindPing    = 7 // application heartbeat: any direction, empty payload
)

// FlagEOF marks a Batch frame as the end of the sender's stream for the
// current exchange.
const FlagEOF = 1

// Codec errors, distinguished so transports and tests can tell a
// protocol mismatch from a torn frame.
var (
	ErrShortFrame = errors.New("wire: truncated frame")
	ErrBadMagic   = errors.New("wire: bad frame magic")
	ErrVersion    = errors.New("wire: protocol version mismatch")
	ErrOversized  = errors.New("wire: frame payload exceeds MaxPayload")
	ErrBadPayload = errors.New("wire: payload length not a whole number of records")
	ErrBadFlags   = errors.New("wire: undefined flag bits set")
)

// Header is the decoded fixed header of one frame.
type Header struct {
	Kind       uint8
	Flags      uint8
	From       uint32
	Dest       uint32
	Epoch      int64
	Tile       int64
	PayloadLen uint32
}

// EOF reports whether the frame carries the end-of-stream flag.
func (h Header) EOF() bool { return h.Flags&FlagEOF != 0 }

// PutHeader encodes h into b, which must hold HeaderSize bytes.
func PutHeader(b []byte, h Header) {
	_ = b[HeaderSize-1]
	binary.LittleEndian.PutUint32(b[0:], Magic)
	b[4] = h.Kind
	b[5] = h.Flags
	binary.LittleEndian.PutUint16(b[6:], Version)
	binary.LittleEndian.PutUint32(b[8:], h.From)
	binary.LittleEndian.PutUint32(b[12:], h.Dest)
	binary.LittleEndian.PutUint64(b[16:], uint64(h.Epoch))
	binary.LittleEndian.PutUint64(b[24:], uint64(h.Tile))
	binary.LittleEndian.PutUint32(b[32:], h.PayloadLen)
}

// ParseHeader decodes and validates a fixed header: length, magic,
// version, and the payload bound. It does not validate kind-specific
// payload shape — DecodeBatchPayload does that for batches.
func ParseHeader(b []byte) (Header, error) {
	if len(b) < HeaderSize {
		return Header{}, fmt.Errorf("%w: header %d/%d bytes", ErrShortFrame, len(b), HeaderSize)
	}
	if m := binary.LittleEndian.Uint32(b[0:]); m != Magic {
		return Header{}, fmt.Errorf("%w: 0x%08x", ErrBadMagic, m)
	}
	if v := binary.LittleEndian.Uint16(b[6:]); v != Version {
		return Header{}, fmt.Errorf("%w: got %d, want %d", ErrVersion, v, Version)
	}
	if b[5]&^FlagEOF != 0 {
		// Undefined flag bits are a protocol error, not future headroom:
		// accepting them silently would let peers disagree about frame
		// semantics without either side noticing.
		return Header{}, fmt.Errorf("%w: 0x%02x", ErrBadFlags, b[5])
	}
	h := Header{
		Kind:       b[4],
		Flags:      b[5],
		From:       binary.LittleEndian.Uint32(b[8:]),
		Dest:       binary.LittleEndian.Uint32(b[12:]),
		Epoch:      int64(binary.LittleEndian.Uint64(b[16:])),
		Tile:       int64(binary.LittleEndian.Uint64(b[24:])),
		PayloadLen: binary.LittleEndian.Uint32(b[32:]),
	}
	if h.PayloadLen > MaxPayload {
		return Header{}, fmt.Errorf("%w: %d bytes", ErrOversized, h.PayloadLen)
	}
	return h, nil
}

// BatchFrameSize returns the encoded size of a batch of n edges.
func BatchFrameSize(n int) int { return HeaderSize + n*store.RecordSize }

// AppendBatch encodes one edge batch frame onto dst and returns the
// extended slice — header then one store record per edge, the exact
// bytes store.ShardWriter would put on disk for the same edges.
func AppendBatch(dst []byte, from, dest uint32, epoch, tile int64, edges []graph.Edge, eof bool) []byte {
	var flags uint8
	if eof {
		flags = FlagEOF
	}
	n := len(dst)
	dst = append(dst, make([]byte, BatchFrameSize(len(edges)))...)
	PutHeader(dst[n:], Header{
		Kind: KindBatch, Flags: flags,
		From: from, Dest: dest, Epoch: epoch, Tile: tile,
		PayloadLen: uint32(len(edges) * store.RecordSize),
	})
	p := dst[n+HeaderSize:]
	for i, e := range edges {
		store.PutRecord(p[i*store.RecordSize:], e.U, e.V)
	}
	return dst
}

// DecodeBatchPayload decodes a batch frame's payload into dst (appended
// and returned; pass a pooled buffer to decode without allocating). The
// payload must be exactly h.PayloadLen bytes and a whole number of
// records.
func DecodeBatchPayload(dst []graph.Edge, h Header, payload []byte) ([]graph.Edge, error) {
	if uint32(len(payload)) != h.PayloadLen {
		return dst, fmt.Errorf("%w: payload %d/%d bytes", ErrShortFrame, len(payload), h.PayloadLen)
	}
	if len(payload)%store.RecordSize != 0 {
		return dst, fmt.Errorf("%w: %d bytes", ErrBadPayload, len(payload))
	}
	for off := 0; off < len(payload); off += store.RecordSize {
		u, v := store.GetRecord(payload[off:])
		dst = append(dst, graph.Edge{U: u, V: v})
	}
	return dst, nil
}

// DecodeBatch parses one complete batch frame from b — header,
// validation, payload — returning the header, the decoded edges
// (appended to dst) and the number of bytes consumed. It rejects
// truncated and oversized frames with an error, never a panic; frames
// of another kind are rejected with ErrBadPayload.
func DecodeBatch(dst []graph.Edge, b []byte) (Header, []graph.Edge, int, error) {
	h, err := ParseHeader(b)
	if err != nil {
		return Header{}, dst, 0, err
	}
	if h.Kind != KindBatch {
		return Header{}, dst, 0, fmt.Errorf("%w: kind %d is not a batch", ErrBadPayload, h.Kind)
	}
	end := HeaderSize + int(h.PayloadLen)
	if len(b) < end {
		return Header{}, dst, 0, fmt.Errorf("%w: frame %d/%d bytes", ErrShortFrame, len(b), end)
	}
	dst, err = DecodeBatchPayload(dst, h, b[HeaderSize:end])
	if err != nil {
		return Header{}, dst, 0, err
	}
	return h, dst, end, nil
}
