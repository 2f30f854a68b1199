// Command farmbench is the repository's end-to-end benchmark: two
// closed-loop clients submit chunked farms through controller.RunFarm
// to an in-process grid of one overlay super-peer, one controller
// running the donor pool and four donors, and the benchmark reports
// what a user of the grid sees (throughput, farm and chunk latency,
// controller egress, memory, set-up time). With --trace 1 it instead
// reports per-layer numbers from spans around the calls it makes into
// each module. See README.md for the metric, layer and workload table.
//
//	go run . --workload farm-small --seed 1 --seconds 10 --trace 0
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

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name, or \"all\" to run every workload in turn")
	seed := flag.Int64("seed", 1, "seed for every generated input and fault schedule")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	traced := flag.Int("trace", 0, "0 reports end-to-end metrics; 1 runs traced and reports per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "farmbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	var run []workload
	if *name == "all" {
		run = workloads
	} else if w, ok := workloadByName(*name); ok {
		run = []workload{w}
	} else {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "farmbench: unknown workload %q (want one of %s, or all)\n", *name, strings.Join(names, ", "))
		os.Exit(2)
	}
	for _, w := range run {
		cfg := config{w: w, seed: *seed, seconds: *seconds, traced: *traced == 1}
		res, err := runWorkload(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "farmbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		printResult(w.name, res)
	}
}

// printResult writes a readable table, then the result as one JSON line.
func printResult(name string, r *result) {
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-20s %-42s %14.4f %s\n", name, k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	for k, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.Metrics[k] = metric{Value: 0, Unit: m.Unit}
		}
	}
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "farmbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
