// Package core implements the paper's primary contribution: Kronecker
// block-index arithmetic (the α, β, γ maps of Sec. II-A), streaming and
// materialized nonstochastic Kronecker product generation C = A ⊗ B and
// the full-self-loop variant C = (A+I) ⊗ (B+I) (Sec. III), and Kronecker
// products of vertex sets and partitions (Defs. 14 and 16).
//
// All indices are 0-based (the paper is 1-based); the maps below satisfy
// the same composition law γ(α(p), β(p)) = p.
package core

import "fmt"

// Index performs block-index arithmetic for a block size nB = |V_B|.
// For a product vertex p of C = A ⊗ B, Alpha(p) is the factor-A vertex and
// Beta(p) the factor-B vertex; Gamma inverts the pair back to p.
type Index struct {
	NB int64 // block size: the number of vertices of the B factor
}

// NewIndex returns an Index for block size nB. nB must be positive.
func NewIndex(nB int64) Index {
	if nB <= 0 {
		panic(fmt.Sprintf("core: block size must be positive, got %d", nB))
	}
	return Index{NB: nB}
}

// Alpha returns the block number of p: α(p) = ⌊p / nB⌋.
func (ix Index) Alpha(p int64) int64 { return p / ix.NB }

// Beta returns the intra-block index of p: β(p) = p mod nB.
func (ix Index) Beta(p int64) int64 { return p % ix.NB }

// Gamma composes a block number and intra-block index back into a global
// index: γ(i, k) = i·nB + k. It inverts (Alpha, Beta).
func (ix Index) Gamma(i, k int64) int64 { return i*ix.NB + k }

// Split returns (Alpha(p), Beta(p)) in one call.
func (ix Index) Split(p int64) (i, k int64) { return p / ix.NB, p % ix.NB }
