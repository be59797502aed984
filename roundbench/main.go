// Command roundbench measures the In-situ AI closed-loop round end to
// end, and in a separate traced run layer by layer, on three fixed
// workloads. See README.md beside this file for what each metric means.
//
//	roundbench --workload fleet-insitu --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final line. Attempted and failed count
// node-rounds (every node in every Bootstrap and round), so failed /
// attempted is failed_ops_frac.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("roundbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "fleet-insitu, cloud-retrain or wire-fleet")
	seed := fs.Uint64("seed", 1, "workload seed; the program sees it only as Config.Seed")
	seconds := fs.Float64("seconds", 10, "how long to keep starting rounds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "roundbench: bad arguments (workload %q, trace %d, seconds %v)\n", *name, *trace, *seconds)
		return 2
	}
	b := &bench{w: w, seed: *seed, seconds: *seconds, out: stdout, tmp: os.TempDir(), start: time.Now(),
		setups: setupRuns, traceRounds: traceRuns}
	fmt.Fprintf(stdout, "workload %s (%s)\nseed %d, %g s, trace %d\n", w.Name, w.Why, *seed, *seconds, *trace)
	var res result
	if *trace == 1 {
		res, err = b.traced()
	} else {
		res, err = b.untraced()
	}
	if err != nil {
		fmt.Fprintf(stderr, "roundbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "roundbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}
