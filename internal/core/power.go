package core

import (
	"fmt"

	"kronlab/internal/graph"
)

// KronPower materializes the k-fold Kronecker power A^{⊗k} =
// A ⊗ A ⊗ … ⊗ A (k ≥ 1). Repeated powers of a single small factor are
// the nonstochastic analogue of the recursive R-MAT construction; all of
// the paper's two-factor laws extend to powers by induction (see
// groundtruth's Chain* functions, which take k copies of one factor).
func KronPower(a *graph.Graph, k int) (*graph.Graph, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: KronPower needs k ≥ 1, got %d", k)
	}
	c := a
	var err error
	for i := 1; i < k; i++ {
		c, err = Product(c, a)
		if err != nil {
			return nil, err
		}
	}
	return c, nil
}
