package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// spec is the part of BENCHMARK.json the spread report needs.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the first, second and third quartile as Python's
// statistics.quantiles(values, n=4) does (the exclusive method).
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	var q [3]float64
	n := len(s)
	for i := 1; i <= 3; i++ {
		pos := float64(i) * float64(n+1) / 4
		j := min(max(int(pos), 1), n-1)
		frac := pos - float64(j)
		q[i-1] = s[j-1] + frac*(s[j]-s[j-1])
	}
	return q
}

// repeat runs o.repeat sets back to back — every named workload once per
// set, set i with seed o.seed+i, each run a fresh process — and prints,
// per workload and end-to-end metric, the median, the quartiles and the
// spread (interquartile range over median) against the metric's bound.
// A spread over its bound is an error.
func repeat(o options, names []string) error {
	raw, err := os.ReadFile(o.spec)
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("%s: %w", o.spec, err)
	}
	if o.repeat < 2 {
		return fmt.Errorf("-repeat needs at least 2 sets")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string]map[string][]float64{} // workload → metric → one value per set
	for i := 0; i < o.repeat; i++ {
		for _, name := range names {
			args := []string{
				"--workload", name, "--seed", strconv.FormatInt(o.seed+int64(i), 10),
				"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", "0", "-out", o.out,
			}
			if o.short {
				args = append(args, "-short")
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("set %d, %s: %w\n%s", i+1, name, err, out)
			}
			res, err := lastLine(out)
			if err != nil {
				return fmt.Errorf("set %d, %s: %w", i+1, name, err)
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for m, v := range res.Metrics {
				values[name][m] = append(values[name][m], v.Value)
			}
			fmt.Printf("set %d/%d  %-14s seed %d  attempted %d  failed %d\n",
				i+1, o.repeat, name, o.seed+int64(i), res.Attempted, res.Failed)
		}
	}
	over := 0
	for _, name := range names {
		fmt.Printf("\n%s: %d runs\n  %-20s %12s %12s %12s %8s %6s\n", name, o.repeat,
			"metric", "q1", "median", "q3", "spread", "bound")
		for _, m := range sp.EndToEnd {
			q := quartiles(values[name][m.Name])
			spread := (q[2] - q[0]) / q[1]
			mark := ""
			// setup_s is exempt from the spread rule; it reports for information.
			if spread > m.Bound && m.Name != "setup_s" {
				mark = "  OVER BOUND"
				over++
			}
			fmt.Printf("  %-20s %12.5g %12.5g %12.5g %8.4f %6.2f%s\n", m.Name, q[0], q[1], q[2], spread, m.Bound, mark)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d metric spreads exceed their bound", over)
	}
	return nil
}

// lastLine decodes the result a run printed as its last line.
func lastLine(out []byte) (*result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	return &res, nil
}
