package core

import "kronlab/internal/graph"

// addEdges is addEdgesGo in assembly (expand_amd64.s). It reads len(src)
// arcs and writes as many, so the caller passes len(dst) ≥ len(src).
//
//go:noescape
func addEdges(dst, src []graph.Edge, u0, v0 int64)
