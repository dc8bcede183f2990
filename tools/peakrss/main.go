// Command peakrss runs a command with its stdio passed through and exits
// with its status. When the command ends, peakrss prints its wall, user
// and system seconds and its peak resident set size to stderr, taken from
// the child's rusage: one "name value" line each, wall_s, user_s, sys_s
// and peak_rss_mb.
//
// Usage:
//
//	go run ./tools/peakrss <command> [args ...]
package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: peakrss <command> [args ...]")
		os.Exit(2)
	}
	cmd := exec.Command(os.Args[1], os.Args[2:]...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		fmt.Fprintln(os.Stderr, "peakrss:", err)
		os.Exit(127)
	}
	ps := cmd.ProcessState
	maxrss := ps.SysUsage().(*syscall.Rusage).Maxrss // KiB on Linux
	fmt.Fprintf(os.Stderr, "wall_s %.2f\nuser_s %.2f\nsys_s %.2f\npeak_rss_mb %.1f\n",
		wall.Seconds(), ps.UserTime().Seconds(), ps.SystemTime().Seconds(), float64(maxrss)/1024)
	os.Exit(ps.ExitCode())
}
