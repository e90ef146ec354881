package havoq

import "sync"

// exchange hands records between the R ranks of a DistGraph in
// supersteps, the bulk-synchronous form of HavoqGT's rank-to-rank
// messages. In a superstep every rank runs at once and appends records to
// its outbox for each destination rank; a barrier waits for all of them,
// then hands every outbox to its destination, which reads it as its inbox
// in the next superstep. An exchange keeps its buffers, so a traversal of
// many supersteps (and ExactEccentricities' many sweeps) allocates them
// once.
type exchange struct {
	out [][][]int64 // out[from][to]: written by rank from during a superstep
	in  [][][]int64 // in[to][from]: the previous superstep's out, read by rank to
}

func newExchange(r int) *exchange {
	x := &exchange{out: make([][][]int64, r), in: make([][][]int64, r)}
	for rank := range x.out {
		x.out[rank] = make([][]int64, r)
		x.in[rank] = make([][]int64, r)
	}
	return x
}

// superstep runs step on every rank concurrently, with the records sent
// to the rank in the previous superstep (in, by sender) and its outboxes
// (out, by destination, to append to). After every rank has returned it
// hands the outboxes over and reports how many int64s they hold.
func (x *exchange) superstep(step func(rank int, in, out [][]int64)) int64 {
	var wg sync.WaitGroup
	for rank := range x.out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			step(rank, x.in[rank], x.out[rank])
		}()
	}
	wg.Wait()
	var sent int64
	for from, row := range x.out {
		for to, recs := range row {
			sent += int64(len(recs))
			row[to], x.in[to][from] = x.in[to][from][:0], recs
		}
	}
	return sent
}
