package groundtruth

import (
	"fmt"

	"kronlab/internal/graph"
)

// The law table: one row per ground-truth law of a chain product, and the
// only place a law's hypothesis — and the factor tiers it reads — is
// stated and checked. The exported Chain* functions are a typed API over
// the rows callers outside the table use: each goes through its row,
// which checks the hypothesis before reading any factor and panics naming
// the law where it fails. Callers that take the hypothesis from a user —
// kronserve, cmd/groundtruth, internal/validate — find rows with Resolve
// or iterate Laws, and get the row's refusal as an error.

// Loops is a law's hypothesis on the self loops of the factors it takes;
// the zero Loops takes any factors.
type Loops int

const (
	LoopFree  Loops = iota + 1 // A_d∘I = O
	FullLoops                  // A_d∘I = I
)

// Shape is what a law gives a value of.
type Shape int

const (
	Global    Shape = iota // the whole product
	PerVertex              // a product vertex p
	PerArc                 // a non-loop arc (p, q) of the product the law describes
	PerPair                // any pair (p, q)
	Histogram              // value → count over every product vertex
)

// Law is one row of the table. Takes and PlusI are its hypothesis: the
// factors it takes, and whether it describes ⊗(A_d+I) of them (Cor. 1/2
// take loop-free A_d and add the +I themselves) rather than their ⊗.
// Tiers is what it reads of each factor beyond the graph and degrees.
type Law struct {
	Name     string // the quantity, which reports and kronserve answer under
	Property string // the kronserve property that asks for it; "" for the counts summary reads off the graphs
	Formula  string // its FORMULAS.md text, which refusals and panics name
	Takes    Loops
	PlusI    bool
	Tiers    Tiers // the factor tiers its body reads
	Shape    Shape
	// eval is the body: an int64, a float64 or a histogram at p (and q),
	// where the row has checked the hypothesis; from is a per-pair body
	// from p, for every q at once.
	eval body
	from func(fs []*Factor, p []int64) func(q []int64) int64
}

type body func(fs []*Factor, p, q []int64) (any, error)

// whole, vertex and pair make a row's body of a law of the chain, of a
// vertex p, and of a pair (p, q).
func whole[T any](f func([]*Factor) (T, error)) body {
	return func(fs []*Factor, _, _ []int64) (any, error) { return f(fs) }
}

func vertex[T any](f func([]*Factor, []int64) (T, error)) body {
	return func(fs []*Factor, p, _ []int64) (any, error) { return f(fs, p) }
}

func pair[T any](f func([]*Factor, []int64, []int64) (T, error)) body {
	return func(fs []*Factor, p, q []int64) (any, error) { return f(fs, p, q) }
}

var (
	lawVertices              = &Law{Name: "vertices", Formula: "n_C = Π n_d", Shape: Global, eval: whole(numVertices)}
	lawEdges                 = &Law{Name: "edges", Formula: "m_C = (arcs_C + loops_C)/2", Shape: Global, eval: whole(numEdges)}
	lawArcs                  = &Law{Name: "arcs", Formula: "arcs_C = Π arcs_d", Shape: Global, eval: whole(numArcs)}
	lawDegree                = &Law{Name: "degree", Property: "degree", Formula: "d_C = ⊗d_d", Shape: PerVertex, eval: vertex(degrees.at)}
	lawDegreeHistogram       = &Law{Name: "degree histogram", Property: "degree", Formula: "d_C = ⊗d_d", Shape: Histogram, eval: whole(degrees.hist)}
	lawVertexTriangles       = &Law{Name: "vertex triangles", Property: "triangles", Formula: "t_C = 2^{k−1}·⊗t_d", Takes: LoopFree, Tiers: Triangles, Shape: PerVertex, eval: vertex(triangles.at)}
	lawCor1VertexTriangles   = &Law{Name: "vertex triangles", Property: "triangles", Formula: "Cor. 1", Takes: LoopFree, PlusI: true, Tiers: Triangles, Shape: PerVertex, eval: vertex(cor1At)}
	lawTriangleHistogram     = &Law{Name: "vertex triangle histogram", Property: "triangles", Formula: "t_C = 2^{k−1}·⊗t_d", Takes: LoopFree, Tiers: Triangles, Shape: Histogram, eval: whole(triangles.hist)}
	lawCor1TriangleHistogram = &Law{Name: "vertex triangle histogram", Property: "triangles", Formula: "Cor. 1", Takes: LoopFree, PlusI: true, Tiers: Triangles, Shape: Histogram, eval: whole(cor1Histogram)}
	lawEdgeTriangles         = &Law{Name: "edge triangles", Property: "triangles", Formula: "Δ_C = Π Δ_d", Takes: LoopFree, Tiers: Triangles, Shape: PerArc, eval: pair(edgeTriangles)}
	lawCor2EdgeTriangles     = &Law{Name: "edge triangles", Property: "triangles", Formula: "Cor. 2", Takes: LoopFree, PlusI: true, Tiers: Triangles, Shape: PerArc, eval: pair(cor2At)}
	lawGlobalTriangles       = &Law{Name: "global triangles", Property: "triangles", Formula: "τ_C = 6^{k−1}·Π τ_d", Takes: LoopFree, Tiers: Triangles, Shape: Global, eval: whole(globalTriangles)}
	lawCor1GlobalTriangles   = &Law{Name: "global triangles", Property: "triangles", Formula: "Cor. 1", Takes: LoopFree, PlusI: true, Tiers: Triangles, Shape: Global, eval: whole(cor1Global)}
	lawVertexClustering      = &Law{Name: "vertex clustering", Property: "clustering", Formula: "Thm. 1", Takes: LoopFree, Tiers: Triangles, Shape: PerVertex, eval: vertex(vertexClustering)}
	lawEdgeClustering        = &Law{Name: "edge clustering", Property: "clustering", Formula: "Thm. 2", Takes: LoopFree, Tiers: Triangles, Shape: PerArc, eval: pair(edgeClustering)}
	lawHops                  = &Law{Name: "hops", Property: "hops", Formula: "Thm. 3", Takes: FullLoops, Shape: PerPair, eval: pair(hops), from: hopsFrom}
	lawEccentricity          = &Law{Name: "eccentricity", Property: "eccentricity", Formula: "Cor. 4", Takes: FullLoops, Tiers: Distances, Shape: PerVertex, eval: vertex(eccentricities.at)}
	lawEccentricityHistogram = &Law{Name: "eccentricity histogram", Property: "eccentricity", Formula: "Cor. 4", Takes: FullLoops, Tiers: Distances, Shape: Histogram, eval: whole(eccentricities.hist)}
	lawDiameter              = &Law{Name: "diameter", Property: "diameter", Formula: "Cor. 3", Takes: FullLoops, Tiers: Distances, Shape: Global, eval: whole(diameter)}
	lawCloseness             = &Law{Name: "closeness", Property: "closeness", Formula: "Thm. 4", Takes: FullLoops, Shape: PerVertex, eval: vertex(closenessAt)}
)

// Laws is the table, in the order reports list it.
var Laws = []*Law{
	lawVertices, lawEdges, lawArcs, lawDegree, lawDegreeHistogram,
	lawVertexTriangles, lawCor1VertexTriangles, lawTriangleHistogram, lawCor1TriangleHistogram,
	lawEdgeTriangles, lawCor2EdgeTriangles, lawGlobalTriangles, lawCor1GlobalTriangles,
	lawVertexClustering, lawEdgeClustering,
	lawHops, lawEccentricity, lawEccentricityHistogram, lawDiameter, lawCloseness,
}

// The typed API, one function per row it covers: the row's value at coordinates
// p (and q), a core.ChainIndex split of product vertices. Counts are
// checked — a chain a handful of factors deep overflows int64 easily, and
// a law refuses it rather than wrap — but for the degree and ε, which
// cannot overflow (a degree is at most n_C). A law of ⊗ over the +I
// factors answers for ⊗(A_d+I), the degree there too;
// ChainGlobalTrianglesFullLoops is Cor. 1's law of ⊗(A_d+I) over
// loop-free A_d.

// ChainNumVertices returns n_C = Π n_d.
func ChainNumVertices(fs []*Factor) (int64, error) { return at[int64](lawVertices, fs, nil, nil) }

// ChainNumEdges returns m_C = (arcs_C + loops_C)/2, for loop-free factors
// the paper's m_C = 2^{k−1}·Π m_d.
func ChainNumEdges(fs []*Factor) (int64, error) { return at[int64](lawEdges, fs, nil, nil) }

// ChainDegreeAt returns d_p = Π_d d_{p[d]}.
func ChainDegreeAt(fs []*Factor, p []int64) int64 { return value(at[int64](lawDegree, fs, p, nil)) }

// ChainVertexTrianglesAt returns t_p = 2^{k−1}·Π_d t_{p[d]}.
func ChainVertexTrianglesAt(fs []*Factor, p []int64) (int64, error) {
	return at[int64](lawVertexTriangles, fs, p, nil)
}

// ChainGlobalTriangles returns τ_C = 6^{k−1}·Π τ_d.
func ChainGlobalTriangles(fs []*Factor) (int64, error) {
	return at[int64](lawGlobalTriangles, fs, nil, nil)
}

// ChainGlobalTrianglesFullLoops returns τ of ⊗(A_d+I) (Cor. 1, summed).
func ChainGlobalTrianglesFullLoops(fs []*Factor) (int64, error) {
	return at[int64](lawCor1GlobalTriangles, fs, nil, nil)
}

// ChainEccentricityHistogram returns the ε histogram (Fig. 1 at any k).
func ChainEccentricityHistogram(fs []*Factor) (map[int64]int64, error) {
	return at[map[int64]int64](lawEccentricityHistogram, fs, nil, nil)
}

// ChainClosenessAt returns ζ_p (Thm. 4, Sec. V-B's compressed form).
func ChainClosenessAt(fs []*Factor, p []int64) float64 {
	return value(at[float64](lawCloseness, fs, p, nil))
}

// at is the typed API's way through a row. Every body returns a typed
// value, its zero with an error, so a body of another type than its
// function's panics here.
func at[T any](l *Law, fs []*Factor, p, q []int64) (T, error) {
	l.require(fs, p, q)
	v, err := l.eval(fs, p, q)
	return v.(T), err
}

// value drops the error of a law that cannot overflow.
func value[T any](v T, _ error) T { return v }

// admits returns why factor d — loops self loops, n vertices — is outside
// the factors the law takes, or nil.
func (l *Law) admits(d int, loops, n int64) error {
	switch {
	case l.Takes == LoopFree && loops != 0:
		return fmt.Errorf("%s requires a loop-free factor, got %d self loops in factor %d (%s)", l.Formula, loops, d, l.Name)
	case l.Takes == FullLoops && loops != n:
		return fmt.Errorf("%s requires full self loops, got %d/%d in factor %d (%s)", l.Formula, loops, n, d, l.Name)
	}
	return nil
}

// check returns why the law does not hold on fs at (p, q): a factor
// outside its hypothesis or built without a tier the law reads, or — for
// a per-arc law — a pair that is no non-loop arc of the product it
// describes: joined by an arc in every digit or, under the +I, an equal
// one, and not equal in all.
func (l *Law) check(fs []*Factor, p, q []int64) error {
	arc, same := true, true
	for d, f := range fs {
		if err := l.admits(d, f.loops, f.N()); err != nil {
			return err
		}
		if missing := l.Tiers &^ f.tiers(); missing != 0 {
			name := "triangle"
			if missing&Triangles == 0 {
				name = "distance"
			}
			return fmt.Errorf("%s needs the %s tier, which factor %d was built without (%s)", l.Formula, name, d, l.Name)
		}
		if l.Shape == PerArc {
			arc = arc && (f.G.HasArc(p[d], q[d]) || l.PlusI && p[d] == q[d])
			same = same && p[d] == q[d]
		}
	}
	if l.Shape == PerArc && (!arc || same) {
		return fmt.Errorf("%s is a law of non-loop arcs; %v–%v is none (%s)", l.Formula, p, q, l.Name)
	}
	return nil
}

// require panics with check's refusal.
func (l *Law) require(fs []*Factor, p, q []int64) {
	if err := l.check(fs, p, q); err != nil {
		panic("groundtruth: " + err.Error())
	}
}

// Eval returns the law's value over the chain fs at coordinates p (and
// q): an int64, a float64 or a map[int64]int64, as its typed function
// returns it. Outside the hypothesis it evaluates nothing and returns
// check's refusal; a count that overflows int64, or a histogram fold
// larger than its factors allow, is an error too.
func (l *Law) Eval(fs []*Factor, p, q []int64) (any, error) {
	if err := l.check(fs, p, q); err != nil {
		return nil, err
	}
	return l.eval(fs, p, q)
}

// From returns a per-pair law's value from p to any q: the hypothesis
// checked and the sweeps run once, then each q in O(k).
func (l *Law) From(fs []*Factor, p []int64) (func(q []int64) int64, error) {
	if l.from == nil {
		return nil, fmt.Errorf("%s is not a per-pair law (%s)", l.Formula, l.Name)
	}
	if err := l.check(fs, p, nil); err != nil {
		return nil, err
	}
	return l.from(fs, p), nil
}

// A Source returns the summary of registered factor d a row is evaluated
// on: of its +I form when plusI, holding the tiers asked.
type Source func(d int, plusI bool, tiers Tiers) (*Factor, error)

// Summaries returns a Source over gs that builds each summary it is asked
// for once, from scratch, by Summarize: summaries of one factor share no
// tier, and a +I summary reads the factor itself. Summarize is a function
// of the graph, so a graph at several positions of gs — a power's — is
// summarised once.
func Summaries(gs []*graph.Graph) Source {
	type key struct {
		g     *graph.Graph
		plusI bool
		tiers Tiers
	}
	memo := map[key]*Factor{}
	return func(d int, plusI bool, tiers Tiers) (*Factor, error) {
		k := key{gs[d], plusI, tiers}
		if memo[k] == nil {
			memo[k] = Summarize(gs[d], plusI, tiers)
		}
		return memo[k], nil
	}
}

// Bind checks the law against the product asked of the registered
// factors gs — ⊗A_d, or ⊗(A_d+I) when plusI — and returns the factors it
// reads: src's summaries of gs, or of their +I forms where a law of ⊗
// answers for ⊗(A_d+I), holding exactly the tiers the law reads. ⊗(A_d+I) is asked of loop-free A_d, but by the
// laws that take full loops, which the +I gives them whatever A_d's. Its
// error states the hypothesis that fails; nothing is built before every
// factor passes, and with a nil src nothing is built at all.
func (l *Law) Bind(gs []*graph.Graph, plusI bool, src Source) ([]*Factor, error) {
	if l.PlusI && !plusI {
		return nil, fmt.Errorf("%s describes ⊗(A_d+I), not ⊗A_d (%s)", l.Formula, l.Name)
	}
	onI := plusI && !l.PlusI
	for d, g := range gs {
		loops, n := g.NumSelfLoops(), g.NumVertices()
		if plusI && l.Takes != FullLoops && loops != 0 {
			return nil, fmt.Errorf("%s of ⊗(A_d+I) is asked of loop-free A_d, got %d self loops in factor %d (%s)", l.Formula, loops, d, l.Name)
		}
		if onI {
			loops = n
		}
		if err := l.admits(d, loops, n); err != nil {
			if l.Takes == FullLoops || onI {
				err = fmt.Errorf("%w; the factors of ⊗(A_d+I) have full self loops", err)
			}
			return nil, err
		}
	}
	if src == nil {
		return nil, nil
	}
	fs := make([]*Factor, len(gs))
	for d := range gs {
		var err error
		if fs[d], err = src(d, onI, l.Tiers); err != nil {
			return nil, err
		}
	}
	return fs, nil
}

// Resolve returns the row that gives property in shape — a per-pair
// question finds per-arc rows too — for the product asked of the
// registered factors gs, ⊗A_d or ⊗(A_d+I) when plusI, preferring the row
// that describes that product; and the factor list Bind returns for it.
// With no such row it returns a nil row and an error.
func Resolve(property string, shape Shape, gs []*graph.Graph, plusI bool, src Source) (*Law, []*Factor, error) {
	var row *Law
	for _, l := range Laws {
		if l.Property == property && (l.Shape == shape || shape == PerPair && l.Shape == PerArc) && (row == nil || l.PlusI == plusI) {
			row = l
		}
	}
	if row == nil {
		return nil, nil, fmt.Errorf("no %s law has that shape", property)
	}
	fs, err := row.Bind(gs, plusI, src)
	return row, fs, err
}
