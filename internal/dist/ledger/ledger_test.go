package ledger

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func writeLedger(t *testing.T, path string, recs []Record) {
	t.Helper()
	l, st, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if st.Identity != nil {
		t.Fatalf("fresh ledger has identity %+v", st.Identity)
	}
	for _, rec := range recs {
		if err := l.Append(rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func sampleRun() []Record {
	return []Record{
		{Kind: KindIdentity, PlanHash: 0xfeedfacecafef00d, Digest: 42, Procs: 4, Ranks: 6},
		{Kind: KindGen, Gen: 1},
		{Kind: KindEpoch, Epoch: 0},
		{Kind: KindEpoch, Epoch: 1},
		// A respawned head opens the next generation above the last epoch.
		{Kind: KindGen, Gen: 2},
		{Kind: KindEpoch, Epoch: 2},
	}
}

func TestLedgerRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ledger")
	writeLedger(t, path, sampleRun())

	st, err := Replay(path)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if st.Identity == nil || st.Identity.PlanHash != 0xfeedfacecafef00d || st.Identity.Digest != 42 {
		t.Fatalf("identity not reconstructed: %+v", st.Identity)
	}
	if st.Gen != 2 || st.LastEpoch != 2 {
		t.Fatalf("gen/epoch = %d/%d, want 2/2", st.Gen, st.LastEpoch)
	}
	if st.TornTail || st.Done {
		t.Fatalf("unexpected torn/done: %+v", st)
	}
}

func TestLedgerTornTailToleratedAndTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ledger")
	writeLedger(t, path, sampleRun())
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Chop the file mid-final-record at every possible torn length: the
	// replay must drop exactly the final record and keep the rest.
	full, _, err := ReplayBytes(whole)
	if err != nil {
		t.Fatalf("ReplayBytes(whole): %v", err)
	}
	start := lastRecordOffset(t, whole)
	for cut := start + 1; cut < len(whole); cut++ {
		st, valid, err := ReplayBytes(whole[:cut])
		if err != nil {
			t.Fatalf("cut=%d: torn tail rejected: %v", cut, err)
		}
		if !st.TornTail {
			t.Fatalf("cut=%d: torn tail not flagged", cut)
		}
		if valid != start {
			t.Fatalf("cut=%d: valid=%d, want %d", cut, valid, start)
		}
		// The final record was epoch 2; without it the last epoch must be 1
		// while everything earlier survives.
		if st.LastEpoch != 1 {
			t.Fatalf("cut=%d: torn record leaked into state: last epoch %d", cut, st.LastEpoch)
		}
		if st.Identity == nil || st.Gen != full.Gen {
			t.Fatalf("cut=%d: earlier records lost: %+v", cut, st)
		}
	}

	// Open() must truncate the torn tail and resume appendable.
	cut := (start + len(whole)) / 2
	if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	l, st, err := Open(path)
	if err != nil {
		t.Fatalf("Open(torn): %v", err)
	}
	if !st.TornTail {
		t.Fatal("Open(torn): tail not flagged")
	}
	if err := l.Append(Record{Kind: KindDone}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Replay(path)
	if err != nil {
		t.Fatalf("Replay after torn reopen: %v", err)
	}
	if !st2.Done || st2.TornTail || st2.LastEpoch != 1 {
		t.Fatalf("post-truncate state wrong: %+v", st2)
	}
}

// lastRecordOffset returns the byte offset of the final record's frame.
func lastRecordOffset(t *testing.T, data []byte) int {
	t.Helper()
	off := len(fileMagic)
	last := off
	for off < len(data) {
		last = off
		ln := int(binary.LittleEndian.Uint32(data[off:]))
		off += frameHeader + ln
	}
	if off != len(data) {
		t.Fatalf("ledger not whole: off=%d len=%d", off, len(data))
	}
	return last
}

func TestLedgerCorruptionRefusedLoudly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ledger")
	writeLedger(t, path, sampleRun())
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one body byte in a middle record: full-length, bad CRC.
	mid := len(fileMagic) + frameHeader + 3
	corrupt := append([]byte(nil), whole...)
	corrupt[mid] ^= 0x40
	if _, _, err := ReplayBytes(corrupt); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped byte: err = %v, want ErrCorrupt", err)
	}
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open(corrupt): err = %v, want ErrCorrupt", err)
	}

	// Bad magic is corruption, not emptiness.
	bad := append([]byte(nil), whole...)
	bad[0] = 'X'
	if _, _, err := ReplayBytes(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: err = %v, want ErrCorrupt", err)
	}

	// An absurd length field must not allocate or be trusted.
	huge := append([]byte(nil), whole[:len(fileMagic)]...)
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], maxRecord+1)
	huge = append(huge, hdr[:]...)
	if _, _, err := ReplayBytes(huge); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("huge length: err = %v, want ErrCorrupt", err)
	}
}

func TestLedgerMissingFileIsEmpty(t *testing.T) {
	st, err := Replay(filepath.Join(t.TempDir(), "absent.ledger"))
	if err != nil {
		t.Fatalf("Replay(missing): %v", err)
	}
	if !reflect.DeepEqual(st, emptyState()) || st.LastEpoch != -1 {
		t.Fatalf("missing file not empty: %+v", st)
	}
}

func TestLedgerUnknownKindSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ledger")
	writeLedger(t, path, []Record{
		{Kind: KindGen, Gen: 3},
		{Kind: "future-kind", Gen: 9},
		{Kind: KindDone},
	})
	st, err := Replay(path)
	if err != nil {
		t.Fatalf("unknown kind broke replay: %v", err)
	}
	if st.Gen != 3 || !st.Done {
		t.Fatalf("records around unknown kind lost, or the unknown one folded: %+v", st)
	}
}

// oldLedger is a ledger image as heads wrote them while they also
// journaled the checkpoint table: stored records (an absolute prefix per
// tile and rank) and commit records (a tile's commitment flipping) between
// the identity, gen, epoch and done records, as raw frames.
func oldLedger() []byte {
	buf := append([]byte(nil), fileMagic...)
	for _, body := range []string{
		`{"k":"identity","ph":18369614221190033421,"cd":42,"np":4,"nr":6}`,
		`{"k":"gen","g":1}`,
		`{"k":"epoch"}`,
		`{"k":"stored","t":0,"r":1,"n":10}`,
		`{"k":"stored","t":0,"r":2,"n":7}`,
		`{"k":"commit","t":0,"on":true}`,
		`{"k":"epoch","e":1}`,
		`{"k":"stored","t":3,"r":1,"n":9}`,
		`{"k":"commit","t":3,"on":true}`,
		`{"k":"commit","t":3}`,
		`{"k":"done"}`,
	} {
		var hdr [frameHeader]byte
		binary.LittleEndian.PutUint32(hdr[0:], uint32(len(body)))
		binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum([]byte(body), castagnoli))
		buf = append(append(buf, hdr[:]...), body...)
	}
	return buf
}

// TestLedgerOldKindsSkipped: a ledger holding the stored and commit records
// older heads journaled replays to the identity, generation, epoch and
// outcome its other records give, those kinds skipped as unknown, and
// stays appendable.
func TestLedgerOldKindsSkipped(t *testing.T) {
	want := State{
		Identity:  &Record{Kind: KindIdentity, PlanHash: 0xfeedfacecafef00d, Digest: 42, Procs: 4, Ranks: 6},
		Gen:       1,
		LastEpoch: 1,
		Done:      true,
	}
	st, valid, err := ReplayBytes(oldLedger())
	if err != nil || valid != len(oldLedger()) {
		t.Fatalf("old ledger: valid %d of %d bytes, err %v", valid, len(oldLedger()), err)
	}
	if !reflect.DeepEqual(st, want) {
		t.Fatalf("old ledger replays to %+v (identity %+v), want %+v (identity %+v)", st, st.Identity, want, want.Identity)
	}
	path := filepath.Join(t.TempDir(), "old.ledger")
	if err := os.WriteFile(path, oldLedger(), 0o644); err != nil {
		t.Fatal(err)
	}
	l, st, err := Open(path)
	if err != nil || !reflect.DeepEqual(st, want) {
		t.Fatalf("Open(old): %+v, %v", st, err)
	}
	if err := l.Append(Record{Kind: KindGen, Gen: 2}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err := Replay(path); err != nil || st.Gen != 2 || st.LastEpoch != 1 {
		t.Fatalf("append to an old ledger: %+v, %v", st, err)
	}
}

func FuzzLedgerReplay(f *testing.F) {
	// Seed with a real ledger image plus mutations of it.
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.ledger")
	l, _, err := Open(path)
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range sampleRun() {
		if err := l.Append(rec); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(whole)
	f.Add(whole[:len(whole)/2])
	f.Add([]byte{})
	f.Add([]byte("KRONLDG1"))
	f.Add([]byte("not a ledger"))
	f.Add(oldLedger())

	f.Fuzz(func(t *testing.T, data []byte) {
		// Never panics; valid-prefix length is always in range and on the
		// error path points at the offending record.
		st, valid, err := ReplayBytes(data)
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid=%d out of range [0,%d]", valid, len(data))
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("non-corruption error from raw bytes: %v", err)
			}
			return
		}
		// A clean replay's valid prefix must itself replay cleanly to the
		// same fold (minus the torn-tail flag, which the prefix lacks).
		st2, valid2, err2 := ReplayBytes(data[:valid])
		if err2 != nil || valid2 != valid {
			t.Fatalf("valid prefix not idempotent: valid=%d err=%v", valid2, err2)
		}
		st.TornTail = false
		if !reflect.DeepEqual(st, st2) {
			t.Fatalf("prefix replay diverged: %+v, then %+v", st, st2)
		}
	})
}
