//go:build !amd64

package core

import "kronlab/internal/graph"

func addEdges(dst, src []graph.Edge, u0, v0 int64) { addEdgesGo(dst, src, u0, v0) }

// Kernel names the body ExpandRun runs: here the portable loop.
func Kernel() string { return "portable" }
