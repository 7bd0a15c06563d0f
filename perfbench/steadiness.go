package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// steadinessReport runs each workload n times with seeds 1..n, each run in
// its own process as it is run for a measurement, and prints every
// end-to-end metric's median, quartiles and spread — the distance between
// the quartiles as a share of the median — against the metric's bound. A
// spread above a third of the bound is flagged; one above the bound fails.
// A workload named by only is the one repeated; by default every workload
// is.
func steadinessReport(spec benchSpec, n, seconds int, only string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	status := 0
	for _, w := range spec.Workloads {
		if only != "" && w.Name != only {
			continue
		}
		values := make(map[string][]float64)
		for seed := 1; seed <= n; seed++ {
			cmd := exec.Command(exe, "--workload", w.Name, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.Itoa(seconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Printf("%s seed %d: %v\n", w.Name, seed, err)
				status = 1
				continue
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res resultOut
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				fmt.Printf("%s seed %d: result line: %v\n", w.Name, seed, err)
				status = 1
				continue
			}
			if !res.Correct {
				fmt.Printf("%s seed %d: %d of %d operations failed\n", w.Name, seed, res.Failed, res.Attempted)
				status = 1
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		fmt.Printf("%s: %d runs of %d s\n", w.Name, n, seconds)
		fmt.Printf("  %-18s %12s %12s %12s %8s %6s  %s\n", "metric", "median", "q1", "q3", "spread", "bound", "verdict")
		for _, m := range spec.EndToEnd {
			xs := values[m.Name]
			q1, q2, q3 := quartiles(xs)
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			verdict := "steady"
			switch {
			case spread > m.Bound:
				verdict = "UNSTEADY: spread above the bound"
				status = 1
			case spread > m.Bound/3:
				verdict = "within the bound, above a third of it"
			}
			fmt.Printf("  %-18s %12.6g %12.6g %12.6g %8.4f %6.3f  %s\n", m.Name, q2, q1, q3, spread, m.Bound, verdict)
			fmt.Printf("  %-18s %s\n", "", strings.Trim(fmt.Sprintf("%.4g", xs), "[]"))
		}
	}
	return status
}
