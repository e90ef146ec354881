package groundtruth

import (
	"errors"
	"fmt"

	"kronlab/internal/analytics"
	"kronlab/internal/core"
)

// LawRow is one row of the paper's Sec. I scaling-law table: the quantity,
// the Kronecker law, the value predicted from the factors, the exact value
// measured on the materialized product, and whether they agree (for
// bounds, whether the bound holds).
type LawRow struct {
	Quantity  string
	Law       string
	Predicted string
	Measured  string
	OK        bool
}

// ScalingLaws evaluates every row of the Sec. I table for loop-free
// factors a and b, materializing the two products (C = A⊗B for the
// equality laws on triangles/degree, and C' = (A+I)⊗(B+I) for the
// distance laws) and comparing prediction to measurement. The partitions
// pa and pb (may be nil to skip the community rows) are factor community
// partitions. Intended for small factors; this is the validation harness
// behind experiment E1.
func ScalingLaws(a, b *Factor, pa, pb [][]int64) ([]LawRow, error) {
	a.RequireNoSelfLoops("ScalingLaws")
	b.RequireNoSelfLoops("ScalingLaws")
	c, err := core.Product(a.G, b.G)
	if err != nil {
		return nil, err
	}
	cLoops, err := core.ProductWithSelfLoops(a.G, b.G)
	if err != nil {
		return nil, err
	}
	var rows []LawRow
	add := func(q, law string, pred, meas int64) {
		rows = append(rows, LawRow{q, law, fmt.Sprint(pred), fmt.Sprint(meas), pred == meas})
	}
	fs := []*Factor{a, b}
	ix := core.MustChainIndex(a.N(), b.N()) // n_C fits: C is materialized

	// Vertices and edges.
	nC, errN := ChainNumVertices(fs)
	mC, errM := ChainNumEdges(fs)
	if err := errors.Join(errN, errM); err != nil {
		return nil, err
	}
	add("Vertices", "n_C = n_A·n_B", nC, c.NumVertices())
	add("Edges", "m_C = 2·m_A·m_B", mC, c.NumEdges())

	// Degree vector d_C = d_A ⊗ d_B.
	degOK := true
	for p := int64(0); p < c.NumVertices() && degOK; p++ {
		degOK = c.Degree(p) == ChainDegreeAt(fs, ix.Split(p))
	}
	rows = append(rows, LawRow{"Degree", "d_C = d_A ⊗ d_B", "vector", "vector", degOK})

	// Triangle laws on C = A⊗B.
	cTri := analytics.Triangles(c)
	triOK := true
	for p := int64(0); p < c.NumVertices() && triOK; p++ {
		t, err := ChainVertexTrianglesAt(fs, ix.Split(p))
		if err != nil {
			return nil, err
		}
		triOK = cTri.Vertex[p] == t
	}
	rows = append(rows, LawRow{"Vertex Triangles", "t_C = 2·t_A ⊗ t_B", "vector", "vector", triOK})

	edgeOK := true
	idx := int64(-1)
	c.Arcs(func(u, v int64) bool {
		idx++
		if u == v {
			return true
		}
		if cTri.Arc[idx] != EdgeTrianglesAt(a, b, u, v) {
			edgeOK = false
			return false
		}
		return true
	})
	rows = append(rows, LawRow{"Edge Triangles", "Δ_C = Δ_A ⊗ Δ_B", "matrix", "matrix", edgeOK})

	tau, err := ChainGlobalTriangles(fs)
	if err != nil {
		return nil, err
	}
	add("Global Triangles", "τ_C = 6·τ_A·τ_B", tau, cTri.Global)

	// Vertex clustering bound η_C(p) ≥ 1/3·η_A(i)·η_B(k).
	ccOK := true
	cCC := analytics.VertexClustering(c)
	for p := int64(0); p < c.NumVertices() && ccOK; p++ {
		cs := ix.Split(p)
		i, k := cs[0], cs[1]
		if a.Deg[i] < 2 || b.Deg[k] < 2 {
			continue
		}
		etaA := 2 * float64(a.Tri.Vertex[i]) / float64(a.Deg[i]*(a.Deg[i]-1))
		etaB := 2 * float64(b.Tri.Vertex[k]) / float64(b.Deg[k]*(b.Deg[k]-1))
		// Strict Thm. 1 equality with θ, and the 1/3 lower bound.
		pred := VertexClusteringAt(a, b, p)
		if !approxEq(cCC[p], pred) || cCC[p] < etaA*etaB/3-1e-12 {
			ccOK = false
		}
	}
	rows = append(rows, LawRow{"Clustering Coeff.", "η_C = θ·η_A·η_B ≥ ⅓·η_A·η_B", "per-vertex", "per-vertex", ccOK})

	// Distance laws on C' = (A+I)⊗(B+I).
	fsL := []*Factor{NewFactor(a.G.WithFullSelfLoops()).WithDistances(), NewFactor(b.G.WithFullSelfLoops()).WithDistances()}
	cEcc := analytics.Eccentricities(cLoops)
	eccOK := true
	for p := int64(0); p < cLoops.NumVertices() && eccOK; p++ {
		eccOK = cEcc[p] == ChainEccentricityAt(fsL, ix.Split(p))
	}
	rows = append(rows, LawRow{"Vertex Eccentricity", "ε_C(p) = max{ε_A(i), ε_B(k)}", "vector", "vector", eccOK})
	add("Graph Diameter", "diam = max{diam_A, diam_B}", ChainDiameter(fsL), analytics.Diameter(cLoops))

	// Community rows.
	if pa != nil && pb != nil {
		add("# Communities", "|Π_C| = |Π_A|·|Π_B|",
			NumCommunities(pa, pb), int64(len(core.KronPartition(pa, pb, b.N()))))
		statsA := analytics.Communities(a.G, pa)
		statsB := analytics.Communities(b.G, pb)
		inOK, outOK := true, true
		for ai := range pa {
			for bi := range pb {
				pred := CommunityKron(a, b, statsA[ai], statsB[bi])
				sc := core.KronSet(pa[ai], pb[bi], b.N())
				meas := analytics.Community(cLoops, sc)
				if pred.MIn != meas.MIn ||
					(statsA[ai].Size > 1 && statsB[bi].Size > 1 &&
						meas.RhoIn < RhoInLowerBound(statsA[ai], statsB[bi])-1e-12) {
					inOK = false
				}
				if pred.MOut != meas.MOut {
					outOK = false
				}
				if statsA[ai].MOut >= statsA[ai].Size && statsB[bi].MOut >= statsB[bi].Size &&
					meas.RhoOut > RhoOutUpperBound(a, b, statsA[ai], statsB[bi])+1e-12 {
					outOK = false
				}
			}
		}
		rows = append(rows, LawRow{"Internal Density", "m_in exact (Thm. 6); ρ_in ≥ ⅓·ρ_in·ρ_in (Cor. 6)", "per-community", "per-community", inOK})
		rows = append(rows, LawRow{"External Density", "m_out exact (Thm. 6); ρ_out ≤ (3+4ω)Ω·ρ_out·ρ_out (corrected Cor. 7)", "per-community", "per-community", outOK})
	}
	return rows, nil
}

func approxEq(x, y float64) bool {
	d := x - y
	if d < 0 {
		d = -d
	}
	return d <= 1e-9
}
