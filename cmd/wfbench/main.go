// Command wfbench runs the experiments that reproduce the paper's
// quantitative claims and prints their tables.
//
// Usage:
//
//	wfbench -list
//	wfbench -exp E3                # one experiment, quick scale
//	wfbench -scale full            # everything, full scale (slow)
//	wfbench -exp E1 -scale full
//	wfbench -workload map:read     # wfmap vs mutex-sharded baseline
//	wfbench -workload map:zipf -scale full
//	wfbench -workload cache:zipf   # wfcache vs mutex-LRU, raw + holder-stall regimes
//	wfbench -workload txn:transfer # wfmap Atomic vs sorted-multi-mutex, L = 1..8
//	wfbench -workload queue:mpmc   # wfqueue/WorkPool vs channel + mutex-ring
//	wfbench -workload log:lagging  # wflog vs mutex+slice + channel fan-out broadcast
//	wfbench -workload service:read # wfserve vs mutex baseline, open-loop tail latency
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"wflocks/internal/bench"
	"wflocks/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		expID    = flag.String("exp", "", "experiment id (E1..E10); empty = all")
		scale    = flag.String("scale", "quick", "quick or full")
		list     = flag.Bool("list", false, "list experiments and workload scenarios, then exit")
		workName = flag.String("workload", "",
			"data-structure workload instead of an experiment (see -list for the registry)")
		variant = flag.String("variant", "both",
			"delay variant for map/cache/txn workloads: known, adaptive, or both "+
				"(queue, log and service workloads always run adaptive)")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-14s %s\n", e.ID, e.Claim)
		}
		printScenarios(os.Stdout)
		return 0
	}

	var s bench.Scale
	switch *scale {
	case "quick":
		s = bench.Quick
	case "full":
		s = bench.Full
	default:
		fmt.Fprintf(os.Stderr, "wfbench: unknown scale %q (want quick or full)\n", *scale)
		return 2
	}

	variants, err := bench.ParseVariants(*variant)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wfbench: %v\n", err)
		return 2
	}

	if *workName != "" {
		return runWorkload(*workName, s, variants)
	}

	exps := bench.Experiments()
	if *expID != "" {
		e := bench.Lookup(*expID)
		if e == nil {
			fmt.Fprintf(os.Stderr, "wfbench: unknown experiment %q (try -list)\n", *expID)
			return 2
		}
		exps = []bench.Experiment{*e}
	}

	for _, e := range exps {
		start := time.Now()
		table, err := e.Run(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wfbench: %s failed: %v\n", e.ID, err)
			return 1
		}
		fmt.Println(table)
		fmt.Printf("(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// printScenarios renders the central workload registry, one line per
// scenario.
func printScenarios(w *os.File) {
	for _, in := range workload.Scenarios() {
		fmt.Fprintf(w, "%-14s %s\n", in.Name, in.Summary)
	}
}

// runWorkload runs a data-structure workload by name through its
// family's table; the central registry describes the options. vs
// restricts the map/cache/txn delay-variant sweep; the queue, log and
// service tiers are adaptive-only by construction.
func runWorkload(name string, s bench.Scale, vs []bench.Variant) int {
	run := bench.Scenario(name)
	if run == nil {
		// Name the failure precisely: a family nobody registered is a
		// different mistake from a typo inside a known family.
		fam, _, _ := strings.Cut(name, ":")
		if fams := workload.Families(); !slices.Contains(fams, fam) {
			fmt.Fprintf(os.Stderr, "wfbench: unknown workload family %q (families: %s); the registry:\n",
				fam, strings.Join(fams, ", "))
		} else {
			fmt.Fprintf(os.Stderr, "wfbench: unknown %s workload %q; the registry:\n", fam, name)
		}
		printScenarios(os.Stderr)
		return 2
	}
	start := time.Now()
	table, err := run(s, vs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wfbench: %s failed: %v\n", name, err)
		return 1
	}
	fmt.Println(table)
	fmt.Printf("(%s completed in %v)\n", name, time.Since(start).Round(time.Millisecond))
	return 0
}
