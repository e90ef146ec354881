// Package store provides a sharded on-disk edge store for product graphs
// too large for memory — the storage side the paper's Sec. III leaves
// open ("the processor responsible for generating an edge must then send
// it to the processor responsible for its storage"). A store is a
// directory with a small text manifest and S binary shard files of raw
// little-endian (u, v) int64 pairs, one shard per rank of the distributed
// run that wrote it (ShardWriter, then WriteManifest). A product's arcs are
// placed by SourceMap, BySource of the source with its innermost digit
// padded to a power of two: internal/dist's OwnerBySource, bound to the
// chain. Placement is the writer's business alone: Open, Iter, IterShard,
// LoadGraph and Recover walk shards by index and never ask which shard a
// vertex belongs to, so the manifest names neither the map nor the
// innermost factor's size, and a store placed by another map — BySource as
// it was before it kept the hash's high bits, before it added over the
// source's bits, or before the innermost digit was padded, say — reads
// back the same.
//
// Layout:
//
//	dir/MANIFEST    "kronstore 1\nn <vertices>\nshards <S>\ncount <c0> <c1> …"
//	dir/shard-0000  raw 16-byte edge records
//	dir/…
package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"kronlab/internal/graph"
)

// RecordSize is the byte length of one binary edge record: two
// little-endian int64 endpoints. The record format is shared by shard
// files and by kronserve's binary edge stream.
const RecordSize = 16

// PutRecord encodes the edge (u, v) into b, which must be at least
// RecordSize bytes.
func PutRecord(b []byte, u, v int64) {
	binary.LittleEndian.PutUint64(b[0:8], uint64(u))
	binary.LittleEndian.PutUint64(b[8:16], uint64(v))
}

// GetRecord decodes one edge record from b.
func GetRecord(b []byte) (u, v int64) {
	return int64(binary.LittleEndian.Uint64(b[0:8])),
		int64(binary.LittleEndian.Uint64(b[8:16]))
}

// ShardFunc routes an edge to one of s shards.
type ShardFunc func(u, v int64, s int) int

// BySource places an edge by its source alone, evenly and additively: each
// set bit i of the source places at the high word of (2^i·⌊2⁶⁴/φ⌋ mod 2⁶⁴)·s
// — Fibonacci hashing of the single-bit id 2^i, reduced to [0, s) without a
// division — and a source places at the sum of its bits' places mod s:
//
//	BySource(u) = Σ_{i : bit i of u} hi64((2^i·0x9e3779b97f4a7c15 mod 2⁶⁴)·s)  mod s.
//
// Every single-bit id places where the retired map (the Fibonacci hash of
// the whole source) placed it, and the map gains one identity: for sources
// x and y with no bit in common, BySource(x|y) = (BySource(x) + BySource(y))
// mod s. A product vertex is s0 + x with s0 a multiple of the innermost
// factor's vertex count n_L and x < n_L; where n_L is a power of two they
// share no bit, and SourceMap pads n_L to one where it is not.
//
// The high bits are the point of each weight. A remainder keeps a
// product's low bits, for a power-of-two s a permutation of u mod s, and
// each low bit of an R-MAT vertex id is 0 with probability a+b = 0.76:
// shard 0 then holds 0.76^log₂s of the arcs. The sum balances on par with
// the hash of the whole source (README's balance tables): the busiest of s
// ranks holds ≤ 1.003 of the ideal share of RMAT(9)² and RMAT(10)² at
// s ≤ 4, ≤ 1.011 at s = 16.
// This is the one definition of the map; dist.OwnerBySource is this
// function, and SourceMap binds it to a chain.
func BySource(u, _ int64, s int) int { return bySource(uint64(u), s) }

func bySource(u uint64, s int) int {
	var sum uint64
	for x := u; x != 0; x &= x - 1 {
		hi, _ := bits.Mul64(0x9e3779b97f4a7c15<<bits.TrailingZeros64(x), uint64(s))
		if sum += hi; sum >= uint64(s) {
			sum -= uint64(s)
		}
	}
	return int(sum)
}

// SourceMap returns the shard map of a product whose innermost factor has
// nL vertices: BySource of the product vertex p with its innermost digit
// padded to B, the least power of two ≥ nL,
//
//	SourceMap(nL)(p) = BySource(⌊p/nL⌋·B + p mod nL),
//
// computed in uint64, where no product id's padded form overflows. The
// padded digit and the rest share no bit, so for every h ≥ 0 and x < nL
// the map adds over the innermost digit: m(h·nL + x) = m(h·nL) + m(x) mod s
// — a rank's rows of every sweep are one of s classes of the factor's
// rows, fixed once (dist's owner-side walk looks its pick up instead of
// asking about every row). Where nL is a power of two (and for nL ≤ 1) the
// padding is the identity and the map is BySource itself.
func SourceMap(nL int64) ShardFunc {
	n := uint64(max(nL, 1))
	b := uint64(1) << bits.Len64(n-1)
	if b == n {
		return BySource
	}
	return func(u, _ int64, s int) int {
		p := uint64(u)
		return bySource(p/n*b+p%n, s)
	}
}

const manifestName = "MANIFEST"

func shardName(i int) string { return fmt.Sprintf("shard-%04d", i) }

// Store is a read handle on a closed store.
type Store struct {
	Dir    string
	N      int64
	Counts []int64
}

// Open validates the manifest and shard files of a store directory.
func Open(dir string) (*Store, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("store: reading manifest: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 4 || lines[0] != "kronstore 1" {
		return nil, fmt.Errorf("store: bad manifest in %s", dir)
	}
	n, err := parseField(lines[1], "n")
	if err != nil {
		return nil, err
	}
	shards, err := parseField(lines[2], "shards")
	if err != nil {
		return nil, err
	}
	countFields := strings.Fields(lines[3])
	if len(countFields) != int(shards)+1 || countFields[0] != "count" {
		return nil, fmt.Errorf("store: malformed count line %q", lines[3])
	}
	st := &Store{Dir: dir, N: n, Counts: make([]int64, shards)}
	for i := range st.Counts {
		c, err := strconv.ParseInt(countFields[i+1], 10, 64)
		if err != nil || c < 0 {
			return nil, fmt.Errorf("store: bad count %q", countFields[i+1])
		}
		st.Counts[i] = c
		info, err := os.Stat(filepath.Join(dir, shardName(i)))
		if err != nil {
			return nil, fmt.Errorf("store: missing shard %d: %w", i, err)
		}
		if info.Size() != c*RecordSize {
			return nil, fmt.Errorf("store: shard %d has %d bytes, manifest says %d edges", i, info.Size(), c)
		}
	}
	return st, nil
}

// TotalEdges returns the edge count across shards.
func (st *Store) TotalEdges() int64 {
	var t int64
	for _, c := range st.Counts {
		t += c
	}
	return t
}

// Shards returns the shard count.
func (st *Store) Shards() int { return len(st.Counts) }

// IterShard streams the edges of one shard through yield; yield returning
// false stops early.
func (st *Store) IterShard(i int, yield func(u, v int64) bool) error {
	if i < 0 || i >= len(st.Counts) {
		return fmt.Errorf("store: shard %d out of range", i)
	}
	f, err := os.Open(filepath.Join(st.Dir, shardName(i)))
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	var rec [RecordSize]byte
	for e := int64(0); e < st.Counts[i]; e++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return fmt.Errorf("store: shard %d edge %d: %w", i, e, err)
		}
		u, v := GetRecord(rec[:])
		if !yield(u, v) {
			return nil
		}
	}
	return nil
}

// Iter streams every edge of every shard.
func (st *Store) Iter(yield func(u, v int64) bool) error {
	stop := false
	for i := range st.Counts {
		if err := st.IterShard(i, func(u, v int64) bool {
			if !yield(u, v) {
				stop = true
				return false
			}
			return true
		}); err != nil {
			return err
		}
		if stop {
			return nil
		}
	}
	return nil
}

// LoadGraph materializes the whole store as a Graph (arcs as stored).
func (st *Store) LoadGraph() (*graph.Graph, error) {
	arcs := make([]graph.Edge, 0, st.TotalEdges())
	if err := st.Iter(func(u, v int64) bool {
		arcs = append(arcs, graph.Edge{U: u, V: v})
		return true
	}); err != nil {
		return nil, err
	}
	return graph.New(st.N, arcs)
}

func parseField(line, name string) (int64, error) {
	fields := strings.Fields(line)
	if len(fields) != 2 || fields[0] != name {
		return 0, fmt.Errorf("store: malformed manifest line %q", line)
	}
	v, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("store: bad %s value %q", name, fields[1])
	}
	return v, nil
}

// ShardWriter writes a single shard file — the per-rank half of a
// distributed generation-to-disk pipeline, where each simulated rank owns
// exactly one shard and no coordination is needed until the manifest.
type ShardWriter struct {
	f     *os.File
	buf   *bufio.Writer
	scr   []byte // AppendBlock's encode scratch, reused across blocks
	count int64
}

// NewShardWriter creates (or truncates) shard i under dir.
func NewShardWriter(dir string, i int) (*ShardWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, shardName(i)))
	if err != nil {
		return nil, err
	}
	return &ShardWriter{f: f, buf: bufio.NewWriterSize(f, 1<<16)}, nil
}

// AppendBlock writes a whole block of edges as one contiguous run of
// 16-byte records — header-free, so the encoded block passes through the
// bufio layer in large aligned writes (writev-shaped) instead of one
// 16-byte Write per edge. The encode scratch is owned by the writer and
// reused across blocks; callers retain ownership of edges.
func (sw *ShardWriter) AppendBlock(edges []graph.Edge) error {
	need := len(edges) * RecordSize
	if cap(sw.scr) < need {
		sw.scr = make([]byte, need)
	}
	scr := sw.scr[:need]
	for i, e := range edges {
		PutRecord(scr[i*RecordSize:], e.U, e.V)
	}
	if _, err := sw.buf.Write(scr); err != nil {
		return err
	}
	sw.count += int64(len(edges))
	return nil
}

// Count returns the records written so far.
func (sw *ShardWriter) Count() int64 { return sw.count }

// Close flushes and closes the shard file.
func (sw *ShardWriter) Close() error {
	if err := sw.buf.Flush(); err != nil {
		sw.f.Close()
		return err
	}
	return sw.f.Close()
}

// Recover rebuilds the manifest of a store whose writer died before (or
// while) finalizing: it scans the consecutive run of shard files starting
// at shard-0000, truncates any trailing partial record left by an
// interrupted write, writes a fresh manifest from the surviving sizes,
// and returns the reopened store. Complete records are never discarded. A
// gap in the shard numbering ends the scan — shards past the gap cannot
// be distinguished from another store's leftovers, so recovering them is
// refused with an error rather than silently dropping data.
func Recover(dir string, n int64) (*Store, error) {
	var counts []int64
	for i := 0; ; i++ {
		info, err := os.Stat(filepath.Join(dir, shardName(i)))
		if os.IsNotExist(err) {
			for j := i + 1; j <= i+1+len(counts); j++ {
				if _, err := os.Stat(filepath.Join(dir, shardName(j))); err == nil {
					return nil, fmt.Errorf("store: recover %s: shard %d missing but shard %d exists", dir, i, j)
				}
			}
			break
		}
		if err != nil {
			return nil, fmt.Errorf("store: recover %s: %w", dir, err)
		}
		c := info.Size() / RecordSize
		if rem := info.Size() % RecordSize; rem != 0 {
			if err := os.Truncate(filepath.Join(dir, shardName(i)), c*RecordSize); err != nil {
				return nil, fmt.Errorf("store: recover shard %d: truncating partial record: %w", i, err)
			}
		}
		counts = append(counts, c)
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("store: recover %s: no shard files", dir)
	}
	if err := WriteManifest(dir, n, counts); err != nil {
		return nil, err
	}
	return Open(dir)
}

// WriteManifest finalizes a store whose shards were written externally
// (e.g. one per rank by NewShardWriter).
func WriteManifest(dir string, n int64, counts []int64) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "kronstore 1\nn %d\nshards %d\ncount", n, len(counts))
	for _, c := range counts {
		fmt.Fprintf(&sb, " %d", c)
	}
	sb.WriteByte('\n')
	return os.WriteFile(filepath.Join(dir, manifestName), []byte(sb.String()), 0o644)
}
