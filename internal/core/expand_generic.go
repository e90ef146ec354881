//go:build !amd64

package core

import "kronlab/internal/graph"

// hasAVX512 is amd64's probe (expand_amd64.go); here ExpandPacked runs
// addPackedGo, ExpandNarrowTo addNarrowToGo, and SourceOf reads every
// factor packed.
const hasAVX512 = false

func addPacked(dst []graph.Edge, src []uint64, u0, v0 int64) { addPackedGo(dst, src, u0, v0) }

func addPackedTo(dst, src []uint64, base uint64) { addPackedToGo(dst, src, base) }

func addNarrowTo(dst []uint64, src []uint32, base uint64) { addNarrowToGo(dst, src, base) }

// Kernel names the body ExpandPackedTo — the packed walk — runs: here the
// portable loop, and no factor is read narrow. gen.RMAT, whose body it also
// names, draws one output at a time.
func Kernel() string { return "portable" }
