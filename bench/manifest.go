package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// manifest records where and on what a result was measured; every
// record in an -out file carries one, so two result files can be told
// apart before they are compared.
type manifest struct {
	Time       string           `json:"time"`
	Commit     string           `json:"commit"`
	GoVersion  string           `json:"go_version"`
	CPUModel   string           `json:"cpu_model"`
	Kernel     string           `json:"kernel"`
	NProc      int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Rmax       int              `json:"rmax"`
	Seed       int64            `json:"seed"`
	Size       string           `json:"size"`
	Seconds    float64          `json:"seconds"`
	Reps       map[string]int   `json:"reps"`   // counted repetitions per workload at this -seconds
	Scales     map[string][]int `json:"scales"` // R-MAT scales per workload, and of LAD
	Scratch    string           `json:"scratch"`
	ScratchFS  string           `json:"scratch_fs"`
}

func newManifest(o *options) *manifest {
	m := &manifest{
		Time:       time.Now().UTC().Format(time.RFC3339Nano),
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: rmax(),
		Rmax:       rmax(),
		Seed:       o.seed,
		Size:       o.size,
		Seconds:    o.seconds,
		Reps:       map[string]int{},
		Scales:     map[string][]int{"LAD": ladderScales(o.size)},
		Scratch:    o.scratch,
		ScratchFS:  fsType(o.scratch),
	}
	for _, w := range workloads {
		m.Scales[w.name] = w.scales(o.size)
		m.Reps[w.name] = w.repetitions(o)
	}
	return m
}

func (m *manifest) String() string {
	return fmt.Sprintf("commit %s  %s  %q  kernel %s  nproc %d  GOMAXPROCS %d  Rmax %d  seed %d  size %s  scratch %s (%s)",
		m.Commit, m.GoVersion, m.CPUModel, m.Kernel, m.NProc, m.GOMAXPROCS, m.Rmax, m.Seed, m.Size, m.Scratch, m.ScratchFS)
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit asks git; a checkout that is not a repository says so.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fsType names the filesystem the scratch directory is on: store_disk
// measures its page-cache write path.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
