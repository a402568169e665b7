package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// runContext is recorded in every result file so a number can be traced
// back to the host, toolchain and parameters that produced it.
type runContext struct {
	NProc       int            `json:"nproc"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	CPUModel    string         `json:"cpu_model"`
	GoVersion   string         `json:"go_version"`
	GitDescribe string         `json:"git_describe"`
	Workload    string         `json:"workload"`
	Seed        int64          `json:"seed"`
	Seconds     int            `json:"seconds"`
	Trace       bool           `json:"trace"`
	Params      map[string]any `json:"params"`
}

func newRunContext(root, workload string, seed int64, seconds int, trace bool, params map[string]any) runContext {
	return runContext{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		CPUModel:    cpuModel(),
		GoVersion:   runtime.Version(),
		GitDescribe: gitDescribe(root),
		Workload:    workload,
		Seed:        seed,
		Seconds:     seconds,
		Trace:       trace,
		Params:      params,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitDescribe names the commit being measured. A source tree without a
// .git directory (an exported checkout) reports "unknown" rather than
// letting git search the parent directories.
func gitDescribe(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "describe", "--always", "--dirty").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// peakRSSMB is the process's resident-set high-water mark. VmHWM belongs
// to the current program image only, unlike getrusage's maxrss, which
// carries over the shell that exec'd it.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// findRoot returns the repository root: the nearest directory at or
// above the working directory that holds BENCHMARK.json and bench/.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for d := wd; ; d = filepath.Dir(d) {
		if isFile(filepath.Join(d, "BENCHMARK.json")) && isFile(filepath.Join(d, "bench", "go.mod")) {
			return d, nil
		}
		if filepath.Dir(d) == d {
			return wd, nil
		}
	}
}

func isFile(path string) bool {
	st, err := os.Stat(path)
	return err == nil && !st.IsDir()
}
