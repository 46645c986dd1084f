package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// hostStamp identifies where and from what a result was measured. Two
// result files are only comparable when their stamps agree on everything
// but Commit.
type hostStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

// sameHost reports whether two stamps describe comparable hosts.
func (h hostStamp) sameHost(o hostStamp) bool {
	h.Commit, o.Commit = "", ""
	return h == o
}

// parallelism is P: every pool the benchmark sizes (GOMAXPROCS, sweep
// workers, HTTP clients, loopback daemons) is at most this.
func parallelism() int {
	return min(runtime.NumCPU(), 4)
}

// pinHost pins GOMAXPROCS to P and returns the stamp recorded in every
// result.
func pinHost() hostStamp {
	p := parallelism()
	runtime.GOMAXPROCS(p)
	return hostStamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: p,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     buildCommit(),
	}
}

// buildCommit is the VCS revision the go tool stamped into the binary,
// or "unknown" outside a repository.
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in
// MB. Off Linux it falls back to the Go runtime's view of memory obtained
// from the OS, which is never zero either.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
