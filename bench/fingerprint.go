package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// fingerprint says which box and runtime produced a run's numbers, and
// how much of the run the hypervisor gave to someone else: every speed
// claim names its machine (ROADMAP), and a shared microVM's steal is the
// first thing to look at when two runs disagree.
type fingerprint struct {
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOGC       string  `json:"gogc"`
	LoadAvg    string  `json:"load_average"`
	StealShare float64 `json:"steal_share"` // of all CPU time over the run
}

// cpuTimes is the first line of /proc/stat: total and steal jiffies.
type cpuTimes struct{ total, steal float64 }

func readCPUTimes() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{} // not Linux: the steal share reads 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	var t cpuTimes
	for i, f := range fields {
		if i == 0 {
			continue // "cpu"
		}
		v, _ := strconv.ParseFloat(f, 64)
		if i <= 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			t.total += v
		}
		if i == 8 {
			t.steal = v
		}
	}
	return t
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// takeFingerprint closes the fingerprint over the interval since start.
func takeFingerprint(start cpuTimes) fingerprint {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	load := "unknown"
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) >= 3 {
			load = strings.Join(f[:3], " ")
		}
	}
	end := readCPUTimes()
	return fingerprint{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOGC:       gogc,
		LoadAvg:    load,
		StealShare: ratio(end.steal-start.steal, end.total-start.total),
	}
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, bool) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err == nil
		}
	}
	return 0, false
}
