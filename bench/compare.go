package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"time"
)

// benchSpec is BENCHMARK.json: the metric names, units, directions and
// regression bounds that -compare judges by and the smoke test holds the
// harness to.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadBenchSpec finds BENCHMARK.json at the root of the checkout, from
// there or from the benchmark's own directory.
func loadBenchSpec() (*benchSpec, error) {
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, err
		}
		spec := &benchSpec{}
		if err := json.Unmarshal(b, spec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return spec, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// absFloor is the absolute change below which a metric is not judged
// worse, whatever its relative change: set-up of a few milliseconds and
// a resident set of a few megabytes move by more than any sensible
// relative bound from one boot to the next.
var absFloor = map[string]float64{"setup_s": 0.020, "peak_rss_mb": 4}

// runs is one side of a comparison: per (workload, metric) the value of
// every run, in file order, plus the operation counts and, from the
// manifests, when each run started and which commits it measured.
type runs struct {
	values    map[string]map[string][]float64
	attempted map[string]int
	failed    map[string]int
	started   map[string][]time.Time
	commits   map[string]bool
}

func loadRuns(list string) (*runs, error) {
	rs := &runs{values: map[string]map[string][]float64{}, attempted: map[string]int{}, failed: map[string]int{},
		started: map[string][]time.Time{}, commits: map[string]bool{}}
	for _, path := range strings.Split(list, ",") {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<24)
		for sc.Scan() {
			if len(sc.Bytes()) == 0 {
				continue
			}
			var r record
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				f.Close()
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			key := r.Workload
			if r.Trace == 1 {
				key = "ladder" // per-layer metrics do not depend on the workload named
			}
			if rs.values[key] == nil {
				rs.values[key] = map[string][]float64{}
			}
			for _, ms := range []map[string]metricValue{r.Metrics, r.Extra} {
				for name, m := range ms {
					rs.values[key][name] = append(rs.values[key][name], m.Value)
				}
			}
			rs.attempted[key] += r.Attempted
			rs.failed[key] += r.Failed
			if r.Manifest != nil {
				t, _ := time.Parse(time.RFC3339Nano, r.Manifest.Time) // unparsable: the zero time, which pairs with nothing
				rs.started[key] = append(rs.started[key], t)
				rs.commits[r.Manifest.Commit] = true
			}
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return rs, nil
}

const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictWithin     = "within"
	verdictUnresolved = "unresolved"
)

// paired reports whether run i of one side and run i of the other were
// made as a pair: both of pair i started before either of pair i+1, and
// each side went first in at least a third of the pairs. Only then does
// comparing run i with run i mean anything: the host has slow and fast
// phases of many minutes, and two sets recorded one after the other put a
// whole phase on one side.
func paired(old, cur []time.Time) bool {
	n := len(old)
	if n == 0 || n != len(cur) {
		return false
	}
	oldFirst := 0
	for i := 0; i < n; i++ {
		if old[i].IsZero() || cur[i].IsZero() {
			return false
		}
		last := old[i] // whichever run of pair i started second
		if old[i].Before(cur[i]) {
			oldFirst++
			last = cur[i]
		}
		if i+1 < n && !(last.Before(old[i+1]) && last.Before(cur[i+1])) {
			return false
		}
	}
	return n < 3 || 3*oldFirst >= n && 3*(n-oldFirst) >= n
}

// judge compares the runs of one (workload, metric) pair.
//
//   - better: the runs were made as interleaved pairs (isPaired), the new
//     side wins at least nine tenths of them (ties for neither) and the
//     medians differ by more than the distance between the old side's
//     quartiles;
//   - unresolved: otherwise, if either side's spread is wider than the
//     bound and the two sides' ranges overlap;
//   - worse: otherwise, if the median worsened by more than the bound
//     (and by more than the metric's absolute floor);
//   - within: otherwise.
func judge(m metricSpec, old, cur []float64, isPaired bool) string {
	o, n := summarize(old), summarize(cur)
	sign := 1.0 // positive worsened = worse
	if m.Better == "higher" {
		sign = -1
	}
	worsened := sign * (n.Median - o.Median) / math.Abs(o.Median)

	if isPaired && len(old) == len(cur) {
		wins := 0
		for i := range old {
			if sign*(cur[i]-old[i]) < 0 {
				wins++
			}
		}
		if float64(wins) >= 0.9*float64(len(old)) && math.Abs(n.Median-o.Median) > o.Q3-o.Q1 && worsened < 0 {
			return verdictBetter
		}
	}
	overlap := n.Min <= o.Max && o.Min <= n.Max
	if math.Max(o.spread(), n.spread()) > m.Bound && overlap {
		return verdictUnresolved
	}
	if worsened > m.Bound && math.Abs(n.Median-o.Median) > absFloor[m.Name] {
		return verdictWorse
	}
	return verdictWithin
}

// compareMain prints, for every (workload, end-to-end metric) pair found
// on both sides, medians, quartiles, the change, the bound and a
// verdict, and returns non-zero if anything is worse.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: kronbench -compare old.jsonl[,more.jsonl] new.jsonl[,more.jsonl]")
		return 2
	}
	spec, err := loadBenchSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "kronbench:", err)
		return 2
	}
	var sides [2]*runs
	for i, a := range args {
		if sides[i], err = loadRuns(a); err != nil {
			fmt.Fprintln(os.Stderr, "kronbench:", err)
			return 2
		}
	}
	old, cur := sides[0], sides[1]
	// Both sides from one commit is a calibration: nothing changed, so a
	// verdict of better is as much a failure of the benchmark as worse.
	calibration := len(old.commits) == 1 && len(cur.commits) == 1 && !old.commits["unknown"]
	for c := range old.commits {
		calibration = calibration && cur.commits[c]
	}
	worse, better := 0, 0
	row := func(key string, m metricSpec, judged, isPaired bool) {
		ov, nv := old.values[key][m.Name], cur.values[key][m.Name]
		if len(ov) == 0 || len(nv) == 0 {
			return
		}
		o, n := summarize(ov), summarize(nv)
		verdict := judge(m, ov, nv, isPaired)
		bound := fmt.Sprintf("%.2f", m.Bound)
		switch {
		case !judged:
			verdict, bound = "-", "-"
		case verdict == verdictWorse:
			worse++
		case verdict == verdictBetter:
			better++
		}
		fmt.Printf("%-12s %-34s %12.5g [%.5g, %.5g] n=%-2d  %12.5g [%.5g, %.5g] n=%-2d  %+7.1f%%  spread %4.1f%%/%4.1f%%  bound %s  %s\n",
			key, m.Name, o.Median, o.Q1, o.Q3, o.N, n.Median, n.Q1, n.Q3, n.N,
			100*(n.Median-o.Median)/math.Abs(o.Median), 100*o.spread(), 100*n.spread(), bound, verdict)
	}
	fmt.Printf("%-12s %-34s %-44s  %-44s  %8s\n", "workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "change")
	for _, w := range spec.Workloads {
		if old.attempted[w.Name] == 0 || cur.attempted[w.Name] == 0 {
			continue
		}
		isPaired := paired(old.started[w.Name], cur.started[w.Name])
		if !isPaired {
			fmt.Printf("%-12s the two sides were not run as interleaved pairs (README, Comparing): no metric of this workload can be judged better\n", w.Name)
		}
		for _, m := range spec.EndToEnd {
			row(w.Name, m, true, isPaired)
		}
		for _, m := range requestLatency {
			row(w.Name, metricSpec{Name: m.name, Unit: m.unit, Better: "lower"}, false, false)
		}
		oShare := float64(old.failed[w.Name]) / float64(old.attempted[w.Name])
		nShare := float64(cur.failed[w.Name]) / float64(cur.attempted[w.Name])
		verdict := verdictWithin
		if nShare > oShare { // bound 0, absolute
			verdict = verdictWorse
			worse++
		}
		fmt.Printf("%-12s %-34s %12.5g (%d of %d ops)  %12.5g (%d of %d ops)  bound 0  %s\n", w.Name, "failed_share",
			oShare, old.failed[w.Name], old.attempted[w.Name], nShare, cur.failed[w.Name], cur.attempted[w.Name], verdict)
	}
	for _, m := range spec.PerLayer {
		row("ladder", m, false, false) // no bound: shown, not judged
	}
	status := 0
	if worse > 0 {
		fmt.Printf("%d (workload, metric) pairs are worse than their bound allows\n", worse)
		status = 1
	}
	if calibration && better > 0 {
		fmt.Printf("calibration failed: both sides are the same commit, yet %d (workload, metric) pairs read better\n", better)
		status = 1
	}
	return status
}
