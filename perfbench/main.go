// Command perfbench is windowdb's benchmark. One invocation runs one named
// workload against the public API for a fixed time, checks every result
// against an oracle, and prints its metrics; the last line of standard
// output is one JSON object. See README.md for the workloads, the metrics
// and what each layer metric is predicted to move.
//
//	perfbench --workload paper-spill --seed 1 --seconds 40 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

type metricDecl struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 40, "length of the measured window in seconds")
	traced := flag.Int("trace", 0, "1: traced run printing the per-layer metrics; 0: timed run printing the end-to-end metrics")
	decl := flag.String("bench", "BENCHMARK.json", "benchmark declaration listing the metric names and units")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1, *decl); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool, declPath string) error {
	buf, err := os.ReadFile(declPath)
	if err != nil {
		return fmt.Errorf("read declaration: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(buf, &bf); err != nil {
		return fmt.Errorf("parse %s: %w", declPath, err)
	}
	declared := false
	for _, d := range bf.Workloads {
		declared = declared || d.Name == name
	}
	w, ok := workloads()[name]
	if !ok || !declared {
		var names []string
		for n := range workloads() {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("workload %q is not both built in and declared in %s (built in: %s)", name, declPath, strings.Join(names, ", "))
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if err := checkMixes(); err != nil {
		return err
	}
	r := &runner{w: w, seed: seed, seconds: seconds}
	var values map[string]float64
	want := bf.EndToEnd
	if traced {
		want = bf.PerLayer
		values, err = r.traced()
	} else {
		values, err = r.timed()
	}
	if err != nil {
		return err
	}
	metrics := map[string]metricValue{}
	for _, d := range want {
		v, ok := values[d.Name]
		if !ok {
			return fmt.Errorf("workload %s measured no %s", name, d.Name)
		}
		// A failed layer can leave a metric without samples; JSON has no
		// NaN, so the run reports 0 and counts as incorrect.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.failures = append(r.failures, fmt.Sprintf("%s: no valid measurement (%v)", d.Name, v))
			v = 0
		}
		metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		delete(values, d.Name)
	}
	if len(values) > 0 {
		var extra []string
		for n := range values {
			extra = append(extra, n)
		}
		sort.Strings(extra)
		return fmt.Errorf("measured metrics the declaration does not list: %s", strings.Join(extra, ", "))
	}
	res := result{Correct: len(r.failures) == 0, Attempted: r.attempted, Failed: r.failedOps, Metrics: metrics}
	for _, f := range r.failures {
		fmt.Println("FAILED:", f)
	}
	fmt.Printf("workload %s, seed %d, %ds, trace %v: %d attempted, %d failed\n", name, seed, seconds, traced, res.Attempted, res.Failed)
	for _, d := range want {
		fmt.Printf("  %-32s %16.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
