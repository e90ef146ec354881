package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Each repetition of a workload runs in a process of its own, started by
// re-executing this binary with -child, so that peak RSS, GC state and
// the engine's buffer freelist never carry over from one measurement to
// the next. A child prints one JSON line on stdout; stderr passes through.

const (
	childRun    = "run"    // one repetition of a workload → repReport
	childVerify = "verify" // the verification pass → repReport (Err only)
	childPeer   = "peer"   // second cluster process → "ready ADDR", then peerReport
	childLadder = "ladder" // the traced ladder → ladderReport
	childProbe  = "probe"  // supervised two-rank stream; exits 0 if it completes
)

// repReport is what one repetition measured.
type repReport struct {
	SetupS []float64          `json:"setup_s"` // one entry per set-up performed
	Arcs   int64              `json:"arcs"`
	WallS  float64            `json:"wall_s"` // the timed operation(s)
	CPUS   float64            `json:"cpu_s"`  // user+sys over the same region, second process included
	HWMKB  int64              `json:"hwm_kb"` // VmHWM at exit, second process included
	P50MS  float64            `json:"p50_ms"` // over the operations of this repetition
	P95MS  float64            `json:"p95_ms"`
	Ops    int                `json:"ops"`
	Failed int                `json:"failed"`
	Info   map[string]float64 `json:"info,omitempty"`
	Err    string             `json:"err,omitempty"`
}

// cpuTime is the user+sys CPU this process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSKB reads VmHWM, the process's resident-set high-water mark.
func peakRSSKB() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb
		}
	}
	return 0
}

// setupsPerRep is how many times a repetition sets the workload up
// before its timed operation; set-up takes milliseconds, so one sample
// per process would be mostly noise.
const setupsPerRep = 5

// runRep sets the workload up (setups times, keeping the last), runs its
// timed operation once and reports. It is the body of a childRun process
// and, in the smoke test, is called directly.
func runRep(ctx context.Context, w *workload, e *env, setups int) repReport {
	var rep repReport
	fail := func(err error) repReport {
		rep.Ops++
		rep.Failed++
		rep.Err = err.Error()
		return rep
	}
	var inst instance
	for i := 0; i < setups; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		ch, err := e.chain(w.scales(e.size))
		if err != nil {
			return fail(err)
		}
		if inst, err = w.setup(ctx, e, ch); err != nil {
			return fail(err)
		}
		rep.SetupS = append(rep.SetupS, time.Since(t0).Seconds())
	}
	defer inst.close()

	res, err := inst.run(ctx)
	rep.WallS, rep.CPUS = res.wall.Seconds(), res.cpu.Seconds()
	if res.lat == nil {
		res.lat = []time.Duration{res.wall}
	}
	if res.peer != nil {
		rep.CPUS += res.peer.CPUSec
		rep.HWMKB += res.peer.HWMKB
	}
	rep.Arcs, rep.Info = res.arcs, res.info
	rep.Ops, rep.Failed = len(res.lat), res.failed
	lat := make([]float64, len(res.lat))
	for i, d := range res.lat {
		lat[i] = float64(d.Nanoseconds()) / 1e6
	}
	rep.P50MS, rep.P95MS = median(lat), percentile(lat, 95)
	if err != nil {
		rep.Err = err.Error()
		if rep.Failed == 0 { // a single-operation run that failed
			rep.Failed = 1
			if rep.Ops == 0 {
				rep.Ops = 1
			}
		}
	}
	return rep
}

// runVerify is the verification pass of one workload.
func runVerify(ctx context.Context, w *workload, e *env) repReport {
	ve := *e
	ve.size = sizeVerify
	rep := repReport{Ops: 1}
	ch, err := ve.chain(w.verify)
	if err == nil {
		err = w.check(ctx, &ve, ch)
	}
	if err != nil {
		rep.Failed, rep.Err = 1, err.Error()
	}
	return rep
}

// harness starts children. The zero value re-executes this binary; the
// smoke test sets inProcess and everything runs in the calling process.
type harness struct {
	exe       string
	inProcess bool
}

func (h *harness) env(o *options) *env {
	e := &env{seed: o.seed, ranks: rmax(), scratch: o.scratch, size: o.size, warmup: o.warmup}
	if h.inProcess {
		e.spawnPeer = goroutinePeer
	} else {
		e.spawnPeer = h.processPeer
	}
	return e
}

// childArgs are the flags every child needs to rebuild its env.
func childArgs(kind string, e *env, deadline time.Duration) []string {
	return []string{"-child", kind, "-seed", strconv.FormatInt(e.seed, 10),
		"-scratch", e.scratch, "-size", e.size, "-deadline", deadline.String()}
}

// command builds a child in a process group of its own that is killed
// as a group when ctx ends: a repetition killed by the watchdog must
// take its own second process with it.
func (h *harness) command(ctx context.Context, args []string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, h.exe, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	cmd.WaitDelay = time.Second
	return cmd
}

// call runs one child to completion under a hard deadline and decodes
// the JSON line it printed into out. A child that overruns is killed and
// reported as an error; the caller counts it failed and carries on.
func (h *harness) call(ctx context.Context, deadline time.Duration, args []string, out any) error {
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	cmd := h.command(ctx, args)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	err := cmd.Run()
	if ctx.Err() != nil {
		return fmt.Errorf("watchdog: child %v killed after %v", args[:2], deadline)
	}
	if err != nil {
		return fmt.Errorf("child %v: %w", args[:2], err)
	}
	line := bytes.TrimSpace(stdout.Bytes())
	if i := bytes.LastIndexByte(line, '\n'); i >= 0 {
		line = line[i+1:]
	}
	if err := json.Unmarshal(line, out); err != nil {
		return fmt.Errorf("child %v printed %q: %w", args[:2], line, err)
	}
	return nil
}

// rep runs one repetition (or the verification pass) of w; warmup marks
// a repetition the caller will discard.
func (h *harness) rep(ctx context.Context, kind string, w *workload, o *options, warmup bool) repReport {
	const deadline = childDeadline
	e := h.env(o)
	e.warmup = warmup
	if h.inProcess {
		ctx, cancel := context.WithTimeout(ctx, deadline)
		defer cancel()
		if kind == childVerify {
			return runVerify(ctx, w, e)
		}
		return runRep(ctx, w, e, 1)
	}
	var rep repReport
	args := append(childArgs(kind, e, deadline), "-workload", w.name, "-warmup="+strconv.FormatBool(warmup))
	if err := h.call(ctx, deadline, args, &rep); err != nil {
		return repReport{Ops: 1, Failed: 1, Err: err.Error()}
	}
	return rep
}

// processPeer starts the second cluster process as a child of this one
// and waits for it to be listening.
func (h *harness) processPeer(ctx context.Context, e *env, headAddr string) (*peer, error) {
	scales := make([]string, len(e.scales))
	for i, s := range e.scales {
		scales[i] = strconv.Itoa(s)
	}
	args := append(childArgs(childPeer, e, childDeadline),
		"-scales", strings.Join(scales, ","), "-head", headAddr, "-store-dir", e.storeDir)
	ctx, cancel := context.WithCancel(ctx)
	// The peer stays in the caller's process group, so the watchdog on
	// the caller covers both.
	cmd := exec.CommandContext(ctx, h.exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		cancel()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		cancel()
		return nil, err
	}
	lines := bufio.NewScanner(stdout)
	lines.Buffer(nil, 1<<20)
	var once sync.Once
	var rep peerReport
	var werr error
	wait := func() (peerReport, error) {
		once.Do(func() {
			if !lines.Scan() {
				werr = errors.New("peer exited without a report")
			} else if err := json.Unmarshal(lines.Bytes(), &rep); err != nil {
				werr = fmt.Errorf("peer printed %q: %w", lines.Text(), err)
			}
			if err := cmd.Wait(); err != nil && werr == nil {
				werr = fmt.Errorf("peer: %w", err)
			}
		})
		return rep, werr
	}
	stop := func() {
		cancel() // kills the peer if it is still running
		wait()
	}
	if !lines.Scan() {
		stop()
		return nil, errors.New("peer exited before it was ready")
	}
	addr, ok := strings.CutPrefix(lines.Text(), "ready ")
	if !ok {
		// Not listening: the line is the peer's failure report.
		stop()
		return nil, fmt.Errorf("peer: %s", lines.Text())
	}
	return &peer{addr: addr, wait: wait, stop: stop}, nil
}

// childDeadline is the watchdog on any single child: every operation
// the benchmark times takes a few seconds, so a child still running
// after this long is hung.
const childDeadline = 60 * time.Second

// childMain is the entry point of a re-executed process.
func childMain(ctx context.Context, kind string, o *options) int {
	// Backstop for a child whose parent was itself killed: never outlive
	// the deadline the parent would have enforced.
	time.AfterFunc(o.deadline+2*time.Second, func() { os.Exit(3) })
	ctx, cancel := context.WithTimeout(ctx, o.deadline)
	defer cancel()
	h := &harness{exe: o.exe}
	e := h.env(o)
	out := json.NewEncoder(os.Stdout)
	switch kind {
	case childRun, childVerify:
		w := findWorkload(o.workload)
		if w == nil {
			fmt.Fprintf(os.Stderr, "kronbench: unknown workload %q\n", o.workload)
			return 2
		}
		var rep repReport
		if kind == childVerify {
			rep = runVerify(ctx, w, e)
		} else {
			rep = runRep(ctx, w, e, setupsPerRep)
			rep.HWMKB += peakRSSKB()
		}
		out.Encode(rep)
	case childPeer:
		e.scales, e.storeDir = o.scales, o.storeDir
		rep := runPeer(ctx, e, o.head, func(addr string) { fmt.Println("ready", addr) })
		rep.HWMKB = peakRSSKB()
		out.Encode(rep)
	case childLadder:
		rep := runLadder(ctx, h, o)
		out.Encode(rep)
	case childProbe:
		if err := supervisedStreamProbe(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "kronbench: probe:", err)
			return 1
		}
	default:
		fmt.Fprintf(os.Stderr, "kronbench: unknown child kind %q\n", kind)
		return 2
	}
	return 0
}
