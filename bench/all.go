package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// resultsFile is what a run of every workload writes to out/results.json
// and what -compare reads.
type resultsFile struct {
	Host      hostStamp                 `json:"host"`
	Seed      int64                     `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Quick     bool                      `json:"quick,omitempty"`
	Workloads map[string]workloadResult `json:"workloads"`
}

type workloadResult struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// EndToEnd holds, per metric, the value of each untraced run.
	EndToEnd map[string][]float64 `json:"end_to_end"`
	// PerLayer holds the traced run's metrics.
	PerLayer map[string]float64 `json:"per_layer"`
}

// runAll runs every workload, each run in a fresh child process of this
// binary (clean heap, clean VmHWM): untracedRuns untraced runs and one
// traced run per workload.
func runAll(seed int64, seconds float64, quick bool) error {
	host := stampHost()
	for _, w := range host.warnings() {
		fmt.Fprintln(os.Stderr, "bench: warning:", w)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultsFile{Host: host, Seed: seed, Seconds: seconds, Quick: quick, Workloads: map[string]workloadResult{}}
	for _, w := range workloads {
		wr := workloadResult{EndToEnd: map[string][]float64{}, PerLayer: map[string]float64{}}
		for i := 0; i <= untracedRuns; i++ {
			traced := i == untracedRuns
			res, err := runChild(self, w.Name, seed, seconds, traced, quick)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			for name, m := range res.Metrics {
				if traced {
					wr.PerLayer[name] = m.Value
				} else {
					wr.EndToEnd[name] = append(wr.EndToEnd[name], m.Value)
				}
			}
		}
		file.Workloads[w.Name] = wr
	}
	enc, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "results.json")
	if err := os.WriteFile(path, append(enc, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("# wrote", path)
	for _, w := range workloads {
		if file.Workloads[w.Name].Failed > 0 {
			return fmt.Errorf("%s: %d ops failed", w.Name, file.Workloads[w.Name].Failed)
		}
	}
	return nil
}

// runChild runs one workload in a child process, passing its output
// through, and parses the result line.
func runChild(self, workload string, seed int64, seconds float64, traced, quick bool) (*resultLine, error) {
	args := []string{
		"-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", map[bool]string{false: "0", true: "1"}[traced],
	}
	if quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	return parseResultLine(stdout.Bytes())
}

// parseResultLine decodes the last non-empty line of a run's output.
func parseResultLine(output []byte) (*resultLine, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(output))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res resultLine
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &res, nil
}
