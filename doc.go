// Package kronlab is a reproduction of "Distributed Kronecker Graph
// Generation with Ground Truth of Many Graph Properties" (Steil, Priest,
// Sanders, Pearce, La Fond, Iwabuchi — IEEE IPDPS Workshops 2019).
//
// The library generates nonstochastic Kronecker product graphs
// C = A₁ ⊗ … ⊗ Aₖ (C = A ⊗ B at k = 2, and the full-self-loop variant
// over the +I factors) from small factor graphs — streamed on a simulated
// distributed cluster, or materialized serially by core.Product, the
// reference the cluster is checked against — and computes ground-truth
// values for many graph analytics on C directly from the factors: degrees, vertex/edge/global triangle counts, clustering
// coefficients, hop distances, diameter, vertex eccentricity, closeness
// centrality, and internal/external community edge counts and densities.
//
// Package layout:
//
//	internal/graph       CSR graph substrate, edge lists, file I/O
//	internal/matrix      dense matrix oracle (⊗, ∘, matmul, diag)
//	internal/core        Kronecker index maps and product generation
//	internal/analytics   exact analytics used as oracles and on factors
//	internal/groundtruth every Kronecker ground-truth formula in the paper
//	internal/gen         factor-graph generators (RMAT, SBM, ER, cliques, …)
//	internal/rejection   hash-based probabilistic edge rejection (Def. 8)
//	internal/dist        simulated distributed cluster + 1D/2D generators
//	internal/havoq       level-synchronous distributed engine (distributed
//	                     BFS, eccentricity, triangle counting)
//
// The runnable surface is cmd/krongen, cmd/groundtruth, cmd/validate,
// cmd/kronserve and cmd/experiments; example_test.go is the quickstart, a
// godoc Example whose output go test checks.
package kronlab
