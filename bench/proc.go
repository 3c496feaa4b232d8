package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

// loadWidth is C: how many workers the simulator ticks with and how many
// agent-side connections feed the daemon stack. Capped at four so the
// load generator, which shares the process, never outnumbers the cores
// of the small hosts the benchmark is judged on.
func loadWidth() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM)
// in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// stealTicks returns the time the hypervisor has withheld from this
// machine's CPUs so far, in clock ticks (1/100 s on Linux) summed over
// CPUs: the eighth counter of the "cpu" line of /proc/stat. It returns
// -1 where that cannot be read.
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return -1
	}
	ticks, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return -1
	}
	return ticks
}

// liveHeapMB forces a collection and returns the heap still reachable,
// in MiB.
func liveHeapMB() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// memCounters is the allocation side of MemStats.
type memCounters struct{ mallocs, bytes uint64 }

// since returns the allocations made after prev was read.
func (m memCounters) since(prev memCounters) memCounters {
	return memCounters{m.mallocs - prev.mallocs, m.bytes - prev.bytes}
}

func (m *memCounters) add(d memCounters) {
	m.mallocs += d.mallocs
	m.bytes += d.bytes
}

func readMemCounters() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{ms.Mallocs, ms.TotalAlloc}
}

// envInfo records where a run happened, so two result files can be told
// apart when their numbers disagree.
type envInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	C          int    `json:"c"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentEnv() envInfo {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return envInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		C:          loadWidth(),
		GoVersion:  runtime.Version(),
		Commit:     commit,
	}
}
