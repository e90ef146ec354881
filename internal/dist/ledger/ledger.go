// Package ledger is the head's durable run log: an append-only,
// per-record-checksummed file that records what a respawned head reads to
// resume the run its dead predecessor supervised — the run's identity (plan
// hash and config digest), head generations, epoch transitions and the
// run's outcome. A respawned head replays the ledger, validates that it is
// resuming the same run, and continues at the next epoch in the next
// generation. The checkpoint table is not journaled: the workers' joins
// fill it, each process being the ground truth for what its own ranks
// stored.
//
// Durability posture:
//
//   - Records are framed [len u32][crc32c u32][body], little-endian,
//     with the CRC (Castagnoli) over the body. Append buffers; Commit
//     flushes and fsyncs — the head commits at every record (generation
//     open, epoch start, conclusion).
//   - Replay tolerates a torn tail: a final record whose bytes end
//     early (the classic crash-mid-write artifact) is dropped and the
//     file is truncated back to the last whole record on reopen. A
//     record whose bytes are all present but whose checksum does not
//     match is NOT tolerated — that is corruption, and replay refuses
//     it loudly rather than resuming from a silently wrong state.
//   - The file grows by one record per attempt and per head generation,
//     so it is never rotated.
//   - A record of a kind replay does not know is skipped, so a ledger
//     written by an older head, which also journaled per-(tile, rank)
//     stored prefixes and tile commitments, still resumes.
package ledger

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
)

// Record kinds.
const (
	KindIdentity = "identity" // run identity: plan hash, config digest, layout
	KindGen      = "gen"      // a head generation opened the ledger
	KindEpoch    = "epoch"    // an attempt epoch began
	KindDone     = "done"     // the run concluded (Err empty on success)
)

// Record is one ledger entry. Fields are kind-discriminated; unused
// fields stay at their zero value and are omitted from the encoding.
type Record struct {
	Kind string `json:"k"`

	// identity
	PlanHash uint64 `json:"ph,omitempty"`
	Digest   uint64 `json:"cd,omitempty"`
	Procs    int    `json:"np,omitempty"`
	Ranks    int    `json:"nr,omitempty"`

	Gen   int64 `json:"g,omitempty"` // gen
	Epoch int64 `json:"e,omitempty"` // epoch

	Err string `json:"err,omitempty"` // done
}

// State is the fold of a ledger's records: everything a respawned head
// needs to resume supervision.
type State struct {
	Identity  *Record // nil until an identity record exists
	Gen       int64   // highest head generation recorded
	LastEpoch int64   // highest epoch recorded; -1 before any
	Done      bool
	DoneErr   string
	TornTail  bool // a torn final record was dropped during replay
}

func emptyState() State { return State{LastEpoch: -1} }

func (st *State) fold(rec Record) {
	switch rec.Kind {
	case KindIdentity:
		r := rec
		st.Identity = &r
	case KindGen:
		if rec.Gen > st.Gen {
			st.Gen = rec.Gen
		}
	case KindEpoch:
		if rec.Epoch > st.LastEpoch {
			st.LastEpoch = rec.Epoch
		}
	case KindDone:
		st.Done = true
		st.DoneErr = rec.Err
	}
	// Unknown kinds are skipped: a newer writer's record types, and the
	// stored and commit records older heads wrote, must not brick a
	// replay (the checksum already vouched for the bytes).
}

// ErrCorrupt reports a record whose bytes are fully present but fail
// their checksum (or decode) — unlike a torn tail, this is not a crash
// artifact and replay refuses to continue past it.
var ErrCorrupt = errors.New("ledger: corrupt record")

// ErrIdentity reports an identity mismatch on resume: the ledger at the
// path belongs to a different run.
var ErrIdentity = errors.New("ledger: run identity mismatch")

// fileMagic opens every ledger file; a file that starts with anything
// else is not a ledger and is refused rather than misparsed.
var fileMagic = []byte("KRONLDG1")

// maxRecord bounds one record's body so a corrupt length field cannot
// make replay allocate gigabytes.
const maxRecord = 1 << 20

// castagnoli is the CRC32C table (the checksum SSE4.2 accelerates).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const frameHeader = 8 // len u32 + crc u32

// ReplayBytes folds a ledger image into a State. It returns the number
// of bytes that form whole, valid records (including the file magic):
// a torn final record is excluded from that count and flagged in
// State.TornTail; a checksum-corrupt record aborts with ErrCorrupt. It
// never panics on arbitrary input — the fuzz target holds it to that.
func ReplayBytes(data []byte) (State, int, error) {
	st := emptyState()
	if len(data) == 0 {
		return st, 0, nil
	}
	if len(data) < len(fileMagic) {
		// A torn write of the magic itself: an empty ledger.
		st.TornTail = true
		return st, 0, nil
	}
	if string(data[:len(fileMagic)]) != string(fileMagic) {
		return st, 0, fmt.Errorf("%w: bad file magic", ErrCorrupt)
	}
	off := len(fileMagic)
	for off < len(data) {
		rem := len(data) - off
		if rem < frameHeader {
			st.TornTail = true
			return st, off, nil
		}
		ln := binary.LittleEndian.Uint32(data[off:])
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if ln > maxRecord {
			return st, off, fmt.Errorf("%w: record length %d exceeds %d", ErrCorrupt, ln, maxRecord)
		}
		if rem-frameHeader < int(ln) {
			// The declared body extends past EOF: a torn final record.
			st.TornTail = true
			return st, off, nil
		}
		body := data[off+frameHeader : off+frameHeader+int(ln)]
		if crc32.Checksum(body, castagnoli) != crc {
			return st, off, fmt.Errorf("%w: checksum mismatch at offset %d", ErrCorrupt, off)
		}
		var rec Record
		if err := json.Unmarshal(body, &rec); err != nil {
			return st, off, fmt.Errorf("%w: undecodable record at offset %d: %v", ErrCorrupt, off, err)
		}
		st.fold(rec)
		off += frameHeader + int(ln)
	}
	return st, off, nil
}

// Replay reads and folds the ledger at path. A missing file is an empty
// state, not an error — the caller distinguishes "fresh run" from
// "resume" by State.Identity.
func Replay(path string) (State, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return emptyState(), nil
	}
	if err != nil {
		return emptyState(), err
	}
	st, _, err := ReplayBytes(data)
	return st, err
}

// Ledger is the append side: one writer (the head), buffered appends,
// explicit Commit (flush + fsync) at state-change boundaries.
type Ledger struct {
	f    *os.File
	size int64
	buf  []byte // pending appended frames, flushed by Commit
}

// Open replays the ledger at path (creating it if absent), truncates a
// torn tail back to the last whole record, and returns the ledger
// positioned for appending plus the replayed state. Corruption and I/O
// errors are returned loudly; the caller decides whether a non-empty
// state is the run it expects (see State.Identity and ErrIdentity).
func Open(path string) (*Ledger, State, error) {
	data, err := os.ReadFile(path)
	fresh := errors.Is(err, os.ErrNotExist)
	if err != nil && !fresh {
		return nil, emptyState(), err
	}
	st := emptyState()
	valid := 0
	if !fresh {
		st, valid, err = ReplayBytes(data)
		if err != nil {
			return nil, st, err
		}
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, st, err
	}
	l := &Ledger{f: f, size: int64(valid)}
	if fresh || valid == 0 {
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, st, err
		}
		if _, err := f.WriteAt(fileMagic, 0); err != nil {
			f.Close()
			return nil, st, err
		}
		l.size = int64(len(fileMagic))
	} else if int64(len(data)) != int64(valid) {
		// Drop the torn tail so the next append starts at a record
		// boundary instead of extending garbage.
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, st, err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, st, err
	}
	return l, st, nil
}

// appendFrame encodes one record onto the pending buffer.
func appendFrame(dst []byte, rec Record) ([]byte, error) {
	body, err := json.Marshal(rec)
	if err != nil {
		return dst, err
	}
	if len(body) > maxRecord {
		return dst, fmt.Errorf("ledger: record body %d bytes exceeds %d", len(body), maxRecord)
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(body, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, body...), nil
}

// Append stages one record. It is not durable until Commit returns.
func (l *Ledger) Append(rec Record) error {
	buf, err := appendFrame(l.buf, rec)
	if err != nil {
		return err
	}
	l.buf = buf
	return nil
}

// Commit writes every staged record at the end of the file and fsyncs.
// A commit that fails leaves the staged records pending, so a retry (or
// Close) gets another chance to land them.
func (l *Ledger) Commit() error {
	if len(l.buf) > 0 {
		n, err := l.f.WriteAt(l.buf, l.size)
		if err != nil {
			// A short write leaves a torn tail — exactly what replay
			// tolerates — but this process must not keep appending past it.
			l.size += int64(n)
			l.buf = nil
			return err
		}
		l.size += int64(n)
		l.buf = l.buf[:0]
	}
	return l.f.Sync()
}

// Close commits pending records and closes the file.
func (l *Ledger) Close() error {
	cerr := l.Commit()
	if err := l.f.Close(); err != nil && cerr == nil {
		cerr = err
	}
	return cerr
}
