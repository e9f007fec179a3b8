package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times a run sets up before it reports the
// median set-up time.
const setupReps = 51

// runUntraced runs the untraced variant of the same workload, seed and
// length in a fresh process and returns its output and the metrics it
// printed. An error reports a process that failed or failed a check.
func runUntraced(a args) (string, map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", nil, fmt.Errorf("locate own binary: %w", err)
	}
	cmd := exec.Command(exe, "--workload", a.workload, "--seed", strconv.FormatInt(a.seed, 10),
		"--seconds", strconv.FormatFloat(a.seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stderr = os.Stderr
	var buf bytes.Buffer
	cmd.Stdout = &buf
	err = cmd.Run()
	out := buf.String()
	m := map[string]float64{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 4 && f[0] == "metric" {
			if v, perr := strconv.ParseFloat(f[2], 64); perr == nil {
				m[f[1]] = v
			}
		}
		if strings.HasPrefix(line, "CHECK FAILED") && err == nil {
			err = errors.New(line)
		}
	}
	if err != nil {
		return out, m, fmt.Errorf("untraced run: %w", err)
	}
	return out, m, nil
}

// outputField returns the value after "key " on the first output line
// that starts with it.
func outputField(out, key string) string {
	for _, line := range strings.Split(out, "\n") {
		if v, ok := strings.CutPrefix(line, key+" "); ok {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// printProbe is the set-up probe's only output: the wall-clock time at
// which the runner would have been called.
func printProbe() {
	fmt.Printf("setup_probe %d\n", time.Now().UnixNano())
}

// probeSetup starts this binary setupReps times in set-up probe mode
// and returns each probe's time from process start (taken just before
// the exec) until the point where the runner would be called.
func probeSetup(a args) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate own binary: %w", err)
	}
	var out []float64
	for i := 0; i < setupReps; i++ {
		cmd := exec.Command(exe, "--workload", a.workload,
			"--seed", strconv.FormatInt(a.seed, 10), "--setup-probe")
		cmd.Stderr = os.Stderr
		var buf bytes.Buffer
		cmd.Stdout = &buf
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		ns, err := strconv.ParseInt(outputField(buf.String(), "setup_probe"), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("set-up probe output %q: %w", buf.String(), err)
		}
		out = append(out, float64(ns-start.UnixNano())/1e9)
	}
	return out, nil
}
