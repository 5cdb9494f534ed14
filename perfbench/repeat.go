package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// repeatRuns runs the benchmark n times as child processes, with seeds
// seed .. seed+n-1, and prints each metric's median, quartiles and
// quartile spread as a share of the median. This is how the spreads the
// bounds in BENCHMARK.json are judged against are reproduced.
func repeatRuns(args []string, seed int64, n int) error {
	values := map[string][]float64{}
	units := map[string]string{}
	var failShares []float64
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(os.Args[0], append(args, "-seed", strconv.FormatInt(s, 10))...)
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		fmt.Printf("seed %d: correct=%v attempted=%d failed=%d", s, res.Correct, res.Attempted, res.Failed)
		for _, m := range endToEnd {
			if v, ok := res.Metrics[m.name]; ok {
				fmt.Printf(" %s=%.4g", m.name, v.Value)
			}
		}
		fmt.Println()
		failShares = append(failShares, float64(res.Failed)/float64(res.Attempted))
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-32s %-8s %14s %14s %14s %9s\n", "metric", "unit", "q1", "median", "q3", "spread")
	for _, name := range names {
		q1, med, q3 := quartiles(values[name])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Printf("%-32s %-8s %14.6g %14.6g %14.6g %8.2f%%\n", name, units[name], q1, med, q3, 100*spread)
	}
	sort.Float64s(failShares)
	fmt.Printf("failed share: min %g max %g\n", failShares[0], failShares[len(failShares)-1])
	return nil
}
