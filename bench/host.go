package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// peakRSSBytes is this process's resident-set high-water mark (VmHWM).
func peakRSSBytes() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, _ := strconv.ParseInt(fields[1], 10, 64)
			return kb * 1024
		}
	}
	return 0
}

// cpuTime is the user plus system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostStamp is what a results file records about where it was measured.
type hostStamp struct {
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	LoadAvg1   float64 `json:"loadavg_1m"`
	Time       string  `json:"time"`
}

func stampHost() hostStamp {
	st := hostStamp{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		LoadAvg1:   loadAvg1(),
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
	// A driver checkout is not a git repository; the stamp then says so.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		st.Commit = strings.TrimSpace(string(out))
		if out, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			st.Dirty = len(strings.TrimSpace(string(out))) > 0
		}
	}
	return st
}

func loadAvg1() float64 {
	raw, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(raw))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64)
	return v
}

// warnings lists the host conditions that make numbers noisy. They are
// reported, never fatal.
func (st hostStamp) warnings() []string {
	var w []string
	if st.LoadAvg1 > 1.0 {
		w = append(w, fmt.Sprintf("1-min load average is %.2f (> 1.0): another process is competing for the cores", st.LoadAvg1))
	}
	if st.GOMAXPROCS != st.NProc {
		w = append(w, fmt.Sprintf("GOMAXPROCS=%d differs from nproc=%d", st.GOMAXPROCS, st.NProc))
	}
	if st.NProc != referenceNProc {
		w = append(w, fmt.Sprintf("nproc=%d; the load is sized for the %d-core reference sandbox", st.NProc, referenceNProc))
	}
	return w
}

// referenceNProc is the core count the client and worker counts assume.
const referenceNProc = 2
