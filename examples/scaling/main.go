// Scaling: the paper's Sec. III / Rem. 1 story. Generate the same product
// on increasing simulated cluster sizes with both 1D and 2D partitioning,
// and watch busy ranks and per-rank storage — including the 1D scalability
// wall at |arcs_A| ranks. (Experiment E2 counts what routing by both
// endpoints would send.)
//
// Run with: go run ./examples/scaling
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"kronlab/internal/core"
	"kronlab/internal/dist"
	"kronlab/internal/gen"
)

func main() {
	log.SetFlags(0)

	a := gen.MustRMAT(gen.Graph500Params(6, 10))
	b := gen.MustRMAT(gen.Graph500Params(6, 11))
	fmt.Printf("A: %v (%d arcs), B: %v (%d arcs), product arcs: %d\n\n",
		a, a.NumArcs(), b, b.NumArcs(), a.NumArcs()*b.NumArcs())

	ch, err := core.NewChain(a, b)
	if err != nil {
		log.Fatal(err)
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "R\tmode\tbusy ranks\tmax stored/rank")
	for _, r := range []int{1, 2, 4, 8, 16, 32} {
		res1, err := dist.GenerateChain(ch, r, dist.OwnerBySource, false)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(tw, "%d\t1D\t%d\t%d\n", r, busyRanks(ch, r, false), res1.Stats.MaxStored())
		res2, err := dist.GenerateChain(ch, r, dist.OwnerBySource, true)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(tw, "%d\t2D\t%d\t%d\n", r, busyRanks(ch, r, true), res2.Stats.MaxStored())
	}
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nThe Rem. 1 wall: a tiny A (ring of 16 → 32 arcs) against a big B.")
	tiny, err := core.NewChain(gen.Ring(16), b)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range []int{16, 32, 64, 128} {
		fmt.Printf("  R=%3d: 1D busy ranks %3d, 2D busy ranks %3d\n",
			r, busyRanks(tiny, r, false), busyRanks(tiny, r, true))
	}
}

// busyRanks returns the ranks the 1D or 2D plan of ch on r ranks gives
// arcs to.
func busyRanks(ch *core.Chain, r int, twoD bool) (busy int) {
	plan, err := dist.PlanChain1D(ch, r)
	if twoD {
		plan, err = dist.PlanChain2D(ch, r)
	}
	if err != nil {
		log.Fatal(err)
	}
	for _, n := range plan.RankArcs() {
		if n > 0 {
			busy++
		}
	}
	return busy
}
