package core_test

import (
	"fmt"

	"kronlab/internal/core"
	"kronlab/internal/graph"
)

// ExampleProduct forms the Kronecker product of a triangle and an edge.
func ExampleProduct() {
	tri, _ := graph.NewUndirected(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}})
	k2, _ := graph.NewUndirected(2, []graph.Edge{{U: 0, V: 1}})
	c, _ := core.Product(tri, k2)
	fmt.Println(c)
	// Output: graph{n=6 m=6 loops=0}
}

// ExampleChainIndex shows the block-index maps of Sec. II-A: at k = 2,
// Split is (α, β) and Join is γ.
func ExampleChainIndex() {
	ix := core.MustChainIndex(3, 4) // block size n_B = 4
	ik := ix.Split(10)
	fmt.Println(ik, ix.Join(ik))
	// Output: [2 2] 10
}

// ExampleChain_Arcs enumerates product arcs without materializing C.
func ExampleChain_Arcs() {
	k2, _ := graph.NewUndirected(2, []graph.Edge{{U: 0, V: 1}})
	ch, _ := core.NewChain(k2, k2)
	count := 0
	ch.Arcs(func(u, v int64) bool {
		count++
		return true
	})
	fmt.Println(count) // 2 arcs × 2 arcs
	// Output: 4
}

// ExampleProduct_power builds the third Kronecker power of an edge as the
// product of three factors.
func ExampleProduct_power() {
	k2, _ := graph.NewUndirected(2, []graph.Edge{{U: 0, V: 1}})
	c, _ := core.Product(k2, k2, k2)
	fmt.Println(c.NumVertices(), c.NumEdges())
	// Output: 8 4
}
