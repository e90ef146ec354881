package dist

// Stream index: the expansion order of a plan is deterministic (tiles in
// ascending ID order, each tile's arcs in the kernel's fixed order), and
// every tile's arc count is closed-form ground truth (Plan.Arcs), so the
// concatenated stream has an index — the tile and in-tile offset of
// global edge i are computable in O(tiles), without generating edges
// 0..i-1. Plan.Locate seeks to an offset; Plan.Slice derives a plan whose
// tiles are windowed (Tile.Skip/Take) to generate exactly a contiguous
// range of the stream. Under 1D partitioning the stream order equals the
// serial chain enumeration (core.Chain.Arcs); under 2D it is the
// deterministic tile-grid order — either way the layout plus rank count
// fully determine the byte stream, which is what makes resume exact.

import (
	"fmt"
	"sort"

	"kronlab/internal/core"
)

// orderedTiles returns every tile of the plan in ascending ID order —
// the canonical stream order. Per-rank tile lists are already
// ID-increasing (PlanChain1D: one tile per rank, ID = rank; PlanChain2D:
// round-robin assignment appends in increasing tile ID), so the global
// sort is a merge of sorted lists; sort.Slice handles the general case.
func (p Plan) orderedTiles() []Tile {
	var out []Tile
	for _, ts := range p.Tiles {
		out = append(out, ts...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// tileRanks maps each tile's ID to the rank the plan gives it.
func (p Plan) tileRanks() map[int]int {
	owner := make(map[int]int, len(p.Tiles))
	for rk, ts := range p.Tiles {
		for _, t := range ts {
			owner[t.ID] = rk
		}
	}
	return owner
}

// TotalArcs returns the number of arcs the plan generates — the sum of
// the (windowed) tile counts, overflow-checked.
func (p Plan) TotalArcs() (int64, error) {
	var total int64
	for _, ts := range p.Tiles {
		for _, t := range ts {
			n := p.Arcs(t)
			if total+n < total {
				return 0, fmt.Errorf("dist: plan arc count overflows int64")
			}
			total += n
		}
	}
	return total, nil
}

// Locate seeks to a global stream offset in the plan: the ID of the tile
// containing edge offset and the edge's position within that tile's
// (windowed) expansion stream. O(tiles) — no edge is generated. An
// offset equal to the stream length returns the last tile with within
// == its arc count (the exhausted position); anything outside [0,total]
// is an error.
func (p Plan) Locate(offset int64) (tileID int, within int64, err error) {
	if offset < 0 {
		return 0, 0, fmt.Errorf("dist: seek offset %d is negative", offset)
	}
	tiles := p.orderedTiles()
	rem := offset
	for i, t := range tiles {
		n := p.Arcs(t)
		if rem < n || (rem == n && i == len(tiles)-1) {
			return t.ID, rem, nil
		}
		rem -= n
	}
	return 0, 0, fmt.Errorf("dist: seek offset %d past stream end", offset)
}

// Slice returns a derived plan generating exactly limit arcs of the
// stream starting at offset (limit < 0 = through the end): tiles fully
// before the window are dropped, the boundary tiles are windowed via
// Tile.Skip/Take, and rank count and tile IDs are preserved — so the
// sliced plan runs on the same rank/process layout, and every process
// of a cluster deriving the same (offset, limit) derives the same plan
// (PlanHash covers the windows). Slicing an already-sliced plan
// composes the windows.
func (p Plan) Slice(offset, limit int64) (Plan, error) {
	total, err := p.TotalArcs()
	if err != nil {
		return Plan{}, err
	}
	if offset < 0 || offset > total {
		return Plan{}, fmt.Errorf("dist: slice offset %d out of range [0,%d]", offset, total)
	}
	if limit < 0 || limit > total-offset {
		limit = total - offset
	}
	out := Plan{R: p.R, NC: p.NC, Dims: p.Dims, Tail: p.Tail, Tiles: make([][]Tile, p.R)}
	// Walk tiles in stream order to window them, but emit each kept tile
	// into its owning rank's list (stream order within a rank follows
	// from the per-rank lists being ID-increasing).
	owner := p.tileRanks()
	skip, take := offset, limit
	for _, t := range p.orderedTiles() {
		n := p.Arcs(t)
		if skip >= n {
			skip -= n
			continue
		}
		if take == 0 {
			break
		}
		w := t // window the copy; the source plan stays intact
		w.Skip += skip
		keep := n - skip
		skip = 0
		if keep > take {
			keep = take
		}
		w.Take = keep
		take -= keep
		rk := owner[w.ID]
		out.Tiles[rk] = append(out.Tiles[rk], w)
	}
	return out, nil
}

// sliceForChain builds the windowed plan for a chain stream: plan the
// chain at the given layout, then slice [offset, offset+limit).
func sliceForChain(ch *core.Chain, r int, twoD bool, offset, limit int64) (Plan, error) {
	plan, err := planForChain(ch, r, twoD)
	if err != nil {
		return Plan{}, err
	}
	if offset == 0 && limit < 0 {
		return plan, nil
	}
	return plan.Slice(offset, limit)
}
