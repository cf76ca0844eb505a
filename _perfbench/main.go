// Command perfbench runs one repetition of one benchmark workload and
// prints its measurements as a single JSON object on stdout.
//
// A repetition builds everything the workload needs (training, system
// and fleet construction, spawning), then makes exactly one Run call
// per system, then checks every run's simulated output. Host time is
// split at the Run calls: time inside them is run time, time in the
// constructors is setup time. With -trace the repetition additionally
// times every Rebalance call, reads the controller's phase overheads,
// attaches telemetry and records a CPU profile of the run phase; the
// simulated outputs, and therefore the digest, must not change.
//
// The runner (run.py) starts one process per repetition, so every
// repetition pays identical setup and nothing is memoised across them.
//
// Usage:
//
//	perfbench -workload paper-f4b -seed 3 [-trace]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	name := flag.String("workload", "", "workload name: "+fmt.Sprint(workloadNames()))
	seed := flag.Uint64("seed", 1, "workload seed (inputs are a pure function of it)")
	traced := flag.Bool("trace", false, "record per-layer metrics (slower; never used for end-to-end numbers)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unexpected arguments %v\n", flag.Args())
		os.Exit(2)
	}
	// One OS thread runs Go code, so the collector's work lands inside
	// the timed region instead of on the second core.
	runtime.GOMAXPROCS(1)
	res, err := Run(*name, *seed, Options{Trace: *traced})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
