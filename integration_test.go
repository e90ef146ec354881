// Cross-module integration tests: full pipelines from factor files
// through distributed generation, the distributed engine, and
// ground-truth validation — plus exec tests of the actual CLI binaries.
package kronlab_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"kronlab/internal/analytics"
	"kronlab/internal/core"
	"kronlab/internal/dist"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
	"kronlab/internal/groundtruth"
	"kronlab/internal/havoq"
	"kronlab/internal/rejection"
	"kronlab/internal/store"
)

// generate runs the distributed generator on the two-factor chain a ⊗ b.
func generate(t *testing.T, a, b *graph.Graph, r int, twoD bool) *dist.Result {
	t.Helper()
	ch, err := core.NewChain(a, b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dist.GenerateChain(ch, r, nil, twoD)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFilePipeline walks the krongen user journey in-process: write factor
// edge lists, load them, generate distributedly, write C, reload C, and
// validate ground truth on the reloaded graph.
func TestFilePipeline(t *testing.T) {
	dir := t.TempDir()
	a := gen.PrefAttach(20, 2, 1)
	b := gen.ER(15, 0.3, 2)
	aPath := filepath.Join(dir, "a.txt")
	bPath := filepath.Join(dir, "b.txt")
	if err := a.SaveEdgeList(aPath); err != nil {
		t.Fatal(err)
	}
	if err := b.SaveEdgeList(bPath); err != nil {
		t.Fatal(err)
	}
	aLoaded, err := graph.LoadUndirected(aPath)
	if err != nil {
		t.Fatal(err)
	}
	bLoaded, err := graph.LoadUndirected(bPath)
	if err != nil {
		t.Fatal(err)
	}
	if !aLoaded.Equal(a) || !bLoaded.Equal(b) {
		t.Fatal("file round trip lost structure")
	}

	res := generate(t, aLoaded, bLoaded, 6, true)
	c, err := res.Collect()
	if err != nil {
		t.Fatal(err)
	}
	cPath := filepath.Join(dir, "c.bin")
	f, err := os.Create(cPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteBinary(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rf, err := os.Open(cPath)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	cLoaded, err := graph.ReadBinary(rf)
	if err != nil {
		t.Fatal(err)
	}
	if !cLoaded.Equal(c) {
		t.Fatal("binary round trip lost structure")
	}

	fa, fb := groundtruth.NewFactor(a, groundtruth.Triangles), groundtruth.NewFactor(b, groundtruth.Triangles)
	want, err := groundtruth.ChainGlobalTriangles([]*groundtruth.Factor{fa, fb})
	if got := analytics.GlobalTriangles(cLoaded); err != nil || got != want {
		t.Fatalf("triangles on reloaded product: %d, ground truth %d (err %v)", got, want, err)
	}
}

// TestFullStackEccentricity is the complete Fig. 1 pipeline: generate
// distributedly, re-home onto havoq's ranks, compute exact distributed
// eccentricities, and compare with Cor. 4 and with the landmark
// approximation's fidelity.
func TestFullStackEccentricity(t *testing.T) {
	a, _ := gen.PrefAttach(30, 2, 3).LargestComponent()
	al := a.WithFullSelfLoops()
	fa := groundtruth.NewFactor(al, groundtruth.Distances)

	res := generate(t, al, al, 3, false)
	dg, err := havoq.BuildFromParts(res.NC, 3, res.PerRank)
	if err != nil {
		t.Fatal(err)
	}
	eccRes, err := dg.ExactEccentricities()
	if err != nil {
		t.Fatal(err)
	}
	pred, err := groundtruth.ChainEccentricities([]*groundtruth.Factor{fa, fa})
	if err != nil {
		t.Fatal(err)
	}
	for p := range pred {
		if pred[p] != eccRes.Ecc[p] {
			t.Fatalf("Cor.4 mismatch at %d: %d vs %d", p, pred[p], eccRes.Ecc[p])
		}
	}
	// Landmark approximation fidelity on the materialized product
	// (the Fig. 1 caption study).
	c, err := res.Collect()
	if err != nil {
		t.Fatal(err)
	}
	est, _ := analytics.ApproxEccentricities(c, 8)
	fracExact, fracOff1 := analytics.EccentricityFidelity(est, eccRes.Ecc)
	if fracExact+fracOff1 < 0.95 {
		t.Fatalf("landmark estimates poor: exact %.2f, off-by-one %.2f", fracExact, fracOff1)
	}
}

// TestRejectionOnDistributedProduct thins a distributed product and
// checks the joint-family property end to end.
func TestRejectionOnDistributedProduct(t *testing.T) {
	a := gen.ER(12, 0.4, 5)
	res := generate(t, a, a, 4, false)
	c, err := res.Collect()
	if err != nil {
		t.Fatal(err)
	}
	h := rejection.NewHasher(9)
	fam := rejection.Family(c, h, []float64{1, 0.9})
	if !fam[0].Equal(c) {
		t.Error("ν=1 must be the full product")
	}
	if fam[1].NumEdges() >= c.NumEdges() {
		t.Error("ν=0.9 should drop edges")
	}
	if !fam[1].IsSymmetric() {
		t.Error("thinned product must remain undirected")
	}
}

// buildTool compiles a cmd/ binary once into a temp dir.
func buildTool(t *testing.T, pkg, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// TestKrongenCLI runs the real krongen binary over temp files and checks
// the generated product against the serial library result.
func TestKrongenCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildTool(t, "kronlab/cmd/krongen", "krongen")
	dir := t.TempDir()
	a := gen.Ring(6)
	b := gen.Path(5)
	aPath := filepath.Join(dir, "a.txt")
	bPath := filepath.Join(dir, "b.txt")
	outPath := filepath.Join(dir, "c.txt")
	if err := a.SaveEdgeList(aPath); err != nil {
		t.Fatal(err)
	}
	if err := b.SaveEdgeList(bPath); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-a", aPath, "-b", bPath, "-out", outPath, "-mode", "1d", "-ranks", "3", "-stats")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("krongen: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "edges/s") {
		t.Errorf("missing stats output: %q", stderr.String())
	}
	got, err := graph.LoadUndirected(outPath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Product(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Text edge lists drop trailing isolated vertices; compare edges.
	wantEdges := want.EdgeList()
	gotEdges := got.EdgeList()
	if len(wantEdges) != len(gotEdges) {
		t.Fatalf("edge counts differ: %d vs %d", len(gotEdges), len(wantEdges))
	}
	for i := range wantEdges {
		if wantEdges[i] != gotEdges[i] {
			t.Fatalf("edge %d differs", i)
		}
	}

	// Distributed generate-route-store: -mode 2d streams to one shard per
	// rank through the engine's store sink.
	storeDir := filepath.Join(dir, "cstore")
	cmd = exec.Command(bin, "-a", aPath, "-b", bPath, "-mode", "2d", "-ranks", "4", "-store", storeDir, "-stats")
	stderr.Reset()
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("krongen -store -mode 2d: %v\n%s", err, stderr.String())
	}
	st, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards() != 4 || st.TotalEdges() != want.NumArcs() {
		t.Fatalf("store has %d shards, %d arcs; want 4 shards, %d arcs",
			st.Shards(), st.TotalEdges(), want.NumArcs())
	}
	onDisk, err := st.LoadGraph()
	if err != nil {
		t.Fatal(err)
	}
	if !onDisk.Equal(want) {
		t.Fatal("2D store stream differs from serial product")
	}
}

// TestKrongenStoresAgreeByShard: a krongen store of -ranks S holds in
// shard s the arcs whose source rank s owns, by the one map every run of
// the chain places by. The chain's innermost factor has 6 vertices, not a
// power of two, where the map pads its digit (store.SourceMap); every
// stored arc must sit in the shard that map names, and the shards must hold
// every arc of the product.
func TestKrongenStoresAgreeByShard(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildTool(t, "kronlab/cmd/krongen", "krongen")
	dir := t.TempDir()
	const shards = 4
	factors := []*graph.Graph{gen.ER(10, 0.5, 31), gen.ER(6, 0.6, 32)}
	var paths []string
	for i, g := range factors {
		path := filepath.Join(dir, fmt.Sprintf("f%d.txt", i))
		if err := g.SaveEdgeList(path); err != nil {
			t.Fatal(err)
		}
		// An edge list drops trailing isolated vertices: the factor krongen
		// reads must be the one written.
		if loaded, err := graph.LoadUndirected(path); err != nil || loaded.NumVertices() != g.NumVertices() {
			t.Fatalf("factor %d reads back with %v vertices (%v), want %d; pick another seed", i, loaded, err, g.NumVertices())
		}
		paths = append(paths, path)
	}
	storeDir := filepath.Join(dir, "store")
	args := []string{"-a", paths[0], "-b", paths[1], "-store", storeDir, "-mode", "1d", "-ranks", fmt.Sprint(shards)}
	if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
		t.Fatalf("krongen %v: %v\n%s", args, err, out)
	}
	st, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards() != shards {
		t.Fatalf("the store has %d shards, want %d", st.Shards(), shards)
	}
	place, total := store.SourceMap(6), int64(0)
	for i := 0; i < shards; i++ {
		if err := st.IterShard(i, func(u, v int64) bool {
			if s := place(u, v, shards); s != i {
				t.Fatalf("arc (%d,%d) in shard %d, the map names %d", u, v, i, s)
			}
			total++
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	if want := factors[0].NumArcs() * factors[1].NumArcs(); total != want {
		t.Fatalf("the store holds %d arcs, want %d", total, want)
	}
}

// TestKrongenWindowMatchesArcsFrom: krongen's -offset/-limit window of a
// chain is, at -ranks 1 and at -ranks 5 under -mode 1d, exactly that
// stretch of the canonical enumeration, computed in process by
// core.Chain.ArcsFrom — line for line, in order. The innermost factor has
// 7 vertices, where the owner map pads its digit.
func TestKrongenWindowMatchesArcsFrom(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildTool(t, "kronlab/cmd/krongen", "krongen")
	dir := t.TempDir()
	gs := []*graph.Graph{gen.Ring(5), gen.Path(4), gen.ER(7, 0.5, 33)}
	paths := make([]string, len(gs))
	for i, g := range gs {
		paths[i] = filepath.Join(dir, fmt.Sprintf("f%d.txt", i))
		if err := g.SaveEdgeList(paths[i]); err != nil {
			t.Fatal(err)
		}
		if loaded, err := graph.LoadUndirected(paths[i]); err != nil || loaded.NumVertices() != g.NumVertices() {
			t.Fatalf("factor %d reads back with %v vertices (%v), want %d; pick another seed", i, loaded, err, g.NumVertices())
		}
	}
	ch, err := core.NewChain(gs...)
	if err != nil {
		t.Fatal(err)
	}
	total, err := ch.NumArcs()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range [][2]int64{{37, 500}, {0, total}, {total - 3, 10}} {
		var want strings.Builder
		n := int64(0)
		if _, err := ch.ArcsFrom(w[0], func(u, v int64) bool {
			if n == w[1] {
				return false
			}
			fmt.Fprintf(&want, "%d %d\n", u, v)
			n++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		for _, ranks := range []string{"1", "5"} {
			args := []string{"-chain", strings.Join(paths, ","), "-ranks", ranks, "-offset", fmt.Sprint(w[0]), "-limit", fmt.Sprint(w[1])}
			var stderr bytes.Buffer
			cmd := exec.Command(bin, args...)
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("krongen %v: %v\n%s", args, err, stderr.String())
			}
			if string(got) != want.String() {
				t.Fatalf("krongen %v wrote %d bytes, ArcsFrom's window is %d; they differ", args, len(got), want.Len())
			}
		}
	}
}

// TestGroundtruthCLI runs the groundtruth binary and sanity-checks its
// report.
func TestGroundtruthCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildTool(t, "kronlab/cmd/groundtruth", "groundtruth")
	dir := t.TempDir()
	a := gen.Clique(4)
	aPath := filepath.Join(dir, "a.txt")
	if err := a.SaveEdgeList(aPath); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-a", aPath, "-b", aPath).CombinedOutput()
	if err != nil {
		t.Fatalf("groundtruth: %v\n%s", err, out)
	}
	// τ(K4) = 4 → τ_C = 6·4·4 = 96.
	if !strings.Contains(string(out), "96") {
		t.Errorf("expected τ_C = 96 in output:\n%s", out)
	}
	// A self loop in A is outside τ_C = 6·τ_A·τ_B's hypothesis: the
	// command refuses before printing anything, in one line naming it,
	// with exit status 1 (2 is a usage error).
	loopy := filepath.Join(dir, "loopy.txt")
	if err := gen.Clique(4).WithFullSelfLoops().SaveEdgeList(loopy); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-a", loopy, "-b", aPath)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 || stdout.Len() != 0 ||
		strings.Count(stderr.String(), "\n") != 1 || !strings.Contains(stderr.String(), "requires a loop-free factor") {
		t.Errorf("looped A: %v, stdout %q, stderr %q; want exit 1, nothing printed, one line naming the hypothesis", err, stdout.String(), stderr.String())
	}
}

// TestDecorateCLI checks groundtruth's -per-vertex feature decoration
// against library ground truth.
func TestDecorateCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildTool(t, "kronlab/cmd/groundtruth", "groundtruth")
	dir := t.TempDir()
	k3Path, p3Path := filepath.Join(dir, "k3.txt"), filepath.Join(dir, "p3.txt")
	if err := gen.Clique(3).SaveEdgeList(k3Path); err != nil {
		t.Fatal(err)
	}
	if err := gen.Path(3).SaveEdgeList(p3Path); err != nil {
		t.Fatal(err)
	}
	// perVertex runs -per-vertex over factor ⊗ P₃.
	perVertex := func(window, factor string) *exec.Cmd {
		return exec.Command(bin, "-a", factor, "-b", p3Path, "-self-loops", "-per-vertex", window)
	}
	out, err := perVertex("0:3", k3Path).Output()
	if err != nil {
		t.Fatalf("-per-vertex 0:3: %v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected header + 3 rows, got %d lines:\n%s", len(lines), out)
	}
	// Row for vertex 0 of (K3+I)⊗(P3+I): degree 6, 10 triangles (checked
	// against Cor. 1 by hand and by the groundtruth tests).
	if !strings.HasPrefix(lines[1], "0,0,0,6,10,") {
		t.Errorf("vertex 0 row = %q", lines[1])
	}
	// A count past the product's end stops at its last vertex, however
	// large: from+count must not wrap around.
	out, err = perVertex("1:9223372036854775807", k3Path).Output()
	if err != nil {
		t.Fatalf("-per-vertex 1:max: %v\n%s", err, out)
	}
	if n := len(strings.Split(strings.TrimSpace(string(out)), "\n")); n != 1+8 {
		t.Errorf("-per-vertex 1:max: %d lines, want header + 8 rows:\n%s", n, out)
	}
	// A negative count is a usage error.
	err = perVertex("0:-3", k3Path).Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Errorf("-per-vertex 0:-3: %v, want exit status 2", err)
	}
	// Looped factors must be rejected.
	loopy := filepath.Join(dir, "loopy.txt")
	if err := gen.Clique(3).WithFullSelfLoops().SaveEdgeList(loopy); err != nil {
		t.Fatal(err)
	}
	if err := perVertex("0:3", loopy).Run(); err == nil {
		t.Error("-per-vertex should reject looped factors")
	}
}

// TestExperimentsCLIList runs every experiment `experiments -list`
// names, end to end — weak-scaling (E3) among them, which puts both plan
// layouts through the engine. Under go test -v on 2 CPUs, with the
// subtests sharing them, the slowest read: closeness (E7) 3.8–5.3 s,
// eccentricity (E6) 2.8–4.2 s, diameter (E8) 0.9–1.6 s, triangles (E4)
// 0.8–1.1 s and community (E9) 0.5–0.8 s at about 190 MB; the rest
// 0.6 s or less. A failed check exits the command 1. Each experiment is
// a parallel subtest named by its id, so a failure names every experiment
// that failed.
func TestExperimentsCLIList(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildTool(t, "kronlab/cmd/experiments", "experiments")
	out, err := exec.Command(bin, "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("experiments -list: %v\n%s", err, out)
	}
	var ids []string
	for _, line := range strings.Split(string(out), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			ids = append(ids, f[0])
		}
	}
	if len(ids) == 0 {
		t.Fatal("experiments -list names no experiment")
	}
	// The experiments share no path: E2, the one that writes, makes its
	// own temporary directory.
	for _, id := range ids {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command(bin, "-exp", id).CombinedOutput()
			if err != nil {
				t.Fatalf("experiments -exp %s: %v\n%s", id, err, out)
			}
			if strings.Contains(string(out), "FAIL") {
				t.Errorf("%s experiment reported FAIL:\n%s", id, out)
			}
		})
	}
}

// TestKrongenChainCLI checks the -chain flag (three heterogeneous
// factors, distributed 2D mode) against the materialized chain product,
// plus the up-front validation and expected-size output.
func TestKrongenChainCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildTool(t, "kronlab/cmd/krongen", "krongen")
	dir := t.TempDir()
	gs := []*graph.Graph{gen.Ring(5), gen.Path(4), gen.Clique(3)}
	paths := make([]string, len(gs))
	for i, g := range gs {
		paths[i] = filepath.Join(dir, []string{"a", "b", "c"}[i]+".txt")
		if err := g.SaveEdgeList(paths[i]); err != nil {
			t.Fatal(err)
		}
	}
	outPath := filepath.Join(dir, "chain.txt")
	cmd := exec.Command(bin, "-chain", strings.Join(paths, ","), "-mode", "2d", "-ranks", "3", "-out", outPath)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("krongen -chain: %v\n%s", err, stderr.String())
	}
	want, err := core.Product(gs...)
	if err != nil {
		t.Fatal(err)
	}
	// The closed-form size must be announced before generation.
	if !strings.Contains(stderr.String(), fmt.Sprintf("|V| = %d", want.NumVertices())) ||
		!strings.Contains(stderr.String(), fmt.Sprintf("|E| = %d", want.NumEdges())) {
		t.Errorf("missing expected-size banner in stderr: %q", stderr.String())
	}
	got, err := graph.LoadUndirected(outPath)
	if err != nil {
		t.Fatal(err)
	}
	wantEdges, gotEdges := want.EdgeList(), got.EdgeList()
	if len(wantEdges) != len(gotEdges) {
		t.Fatalf("edge counts differ: %d vs %d", len(gotEdges), len(wantEdges))
	}
	for i := range wantEdges {
		if wantEdges[i] != gotEdges[i] {
			t.Fatalf("edge %d differs", i)
		}
	}

	// Invalid flag combinations are rejected up front.
	for _, args := range [][]string{
		{"-chain", strings.Join(paths, ","), "-a", paths[0]},
		{"-a", paths[0], "-power", "1"},
		{"-a", paths[0], "-mode", "3d"},
		{"-a", paths[0], "-b", paths[1], "-mode", "serial"},
		{"-a", paths[0], "-b", paths[1], "-store", filepath.Join(dir, "st"), "-shards", "4"},
		{"-a", paths[0], "-b", paths[1], "-cluster-peers", "x:1,y:2"},
	} {
		if err := exec.Command(bin, args...).Run(); err == nil {
			t.Errorf("krongen %v should be rejected", args)
		}
	}

	// An overflowing chain is refused with an explicit error before any
	// generation starts: K3^{⊗45} has 3^45 > 2^63 vertices.
	cmd = exec.Command(bin, "-a", paths[2], "-power", "45")
	stderr.Reset()
	cmd.Stderr = &stderr
	if err := cmd.Run(); err == nil {
		t.Error("krongen should refuse an overflowing power")
	} else if !strings.Contains(stderr.String(), "overflow") {
		t.Errorf("overflow refusal message: %q", stderr.String())
	}
}

// TestKrongenPowerStoreCLI: -power now runs through the distributed
// chain engine (no serial materialization); the 1d store
// stream must still equal the serial power edge-for-edge.
func TestKrongenPowerStoreCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildTool(t, "kronlab/cmd/krongen", "krongen")
	dir := t.TempDir()
	a := gen.PrefAttach(5, 2, 17)
	aPath := filepath.Join(dir, "a.txt")
	if err := a.SaveEdgeList(aPath); err != nil {
		t.Fatal(err)
	}
	storeDir := filepath.Join(dir, "pstore")
	cmd := exec.Command(bin, "-a", aPath, "-power", "3", "-mode", "1d", "-ranks", "4", "-store", storeDir)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("krongen -power -store: %v\n%s", err, stderr.String())
	}
	st, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	onDisk, err := st.LoadGraph()
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Product(a, a, a)
	if err != nil {
		t.Fatal(err)
	}
	if !onDisk.Equal(want) {
		t.Fatal("distributed power store stream differs from the serial product")
	}
}

// TestKrongenPowerCLI checks the -power flag against core.Product.
func TestKrongenPowerCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildTool(t, "kronlab/cmd/krongen", "krongen")
	dir := t.TempDir()
	a := gen.Clique(3)
	aPath := filepath.Join(dir, "a.txt")
	outPath := filepath.Join(dir, "c.txt")
	if err := a.SaveEdgeList(aPath); err != nil {
		t.Fatal(err)
	}
	if err := exec.Command(bin, "-a", aPath, "-power", "3", "-out", outPath).Run(); err != nil {
		t.Fatalf("krongen -power: %v", err)
	}
	got, err := graph.LoadUndirected(outPath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Product(a, a, a)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("power product edges %d, want %d", got.NumEdges(), want.NumEdges())
	}
	// -power with -b must be rejected.
	if err := exec.Command(bin, "-a", aPath, "-b", aPath, "-power", "2").Run(); err == nil {
		t.Error("krongen should reject -power with -b")
	}
}

// TestBenchModule vets and smoke-tests the benchmark harness. bench/ is a
// nested module that `go build ./...` and `go test ./...` never compile,
// so without this a moved internal/ signature the benchmark uses would
// only be noticed by the next benchmark run.
func TestBenchModule(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs a second module")
	}
	for _, args := range [][]string{
		{"vet", "-C", "bench", "."},
		{"test", "-C", "bench", "-count=1", "."},
	} {
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
}
