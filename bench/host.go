package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// host is the metadata a result file records beside the numbers.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	StoreFS    string `json:"store_fs"`
	Commit     string `json:"commit"`
}

func hostInfo(root, storeDir string) host {
	return host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		StoreFS:    fsType(storeDir),
		Commit:     gitCommit(root),
	}
}

func (h host) String() string {
	return fmt.Sprintf("%s, nproc %d, GOMAXPROCS %d, %s %s/%s, store on %s",
		h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion, h.OS, h.Arch, h.StoreFS)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is the commit checked out at root, or "unknown" where root is
// not a git checkout; git is not asked to look above root.
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// peakRSS reads VmHWM, the peak resident set size, from a /proc status
// file and returns it in MiB.
func peakRSS(statusPath string) (float64, error) {
	data, err := os.ReadFile(statusPath)
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in %s", statusPath)
}

// selfPeakRSS is the benchmark process's own peak RSS in MiB.
func selfPeakRSS() (float64, error) { return peakRSS("/proc/self/status") }

// resetPeakRSS lowers this process's VmHWM to its current RSS, so that
// selfPeakRSS reports the peak of the measured requests, not of set-up
// and reference computation, whose garbage the collector frees at times
// that vary from run to run.
func resetPeakRSS() error {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("reset peak rss: %w", err)
	}
	_, err = f.WriteString("5")
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("reset peak rss: %w", err)
	}
	return nil
}
