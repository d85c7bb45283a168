// Command rpqbench regenerates the tables and figures of the paper's
// evaluation section (§5) on the synthetic datasets.
//
// Usage:
//
//	rpqbench -list
//	rpqbench -exp fig4 [-scale 40000] [-seed 1]
//	rpqbench -exp all
//
// These are the paper's exhibits plus the design-choice ablation, for
// reading orderings and trends. Performance claims about the engine
// are made on the benchmark harness (BENCHMARK.json, benchmark/run.sh),
// not here.
//
// -cpuprofile and -memprofile write pprof profiles covering the
// selected experiments (CPU over the whole run; heap snapshotted after
// a final GC), for digging into the engine hot paths with
// `go tool pprof`.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"streamrpq/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		scale   = flag.Int("scale", 40000, "stream length in tuples for the primary runs")
		seed    = flag.Int64("seed", 1, "random seed for dataset and workload generation")
		list    = flag.Bool("list", false, "list available experiments and exit")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile covering the selected experiments to this file")
		memProf = flag.String("memprofile", "", "write a heap profile (after the selected experiments) to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rpqbench: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "rpqbench: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		path := *memProf
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rpqbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "rpqbench: -memprofile: %v\n", err)
			}
		}()
	}

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("  %-8s  %s\n", r.ID, r.Title)
		}
		return
	}

	cfg := experiments.Config{Scale: *scale, Out: os.Stdout, Seed: *seed}
	run := func(r experiments.Runner) {
		start := time.Now()
		if err := r.Run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "rpqbench: %s: %v\n", r.ID, err)
			os.Exit(1)
		}
		fmt.Printf("  [%s completed in %v]\n", r.ID, time.Since(start).Round(time.Millisecond))
	}

	if *exp == "all" {
		for _, r := range experiments.All() {
			run(r)
		}
		return
	}
	r, ok := experiments.ByID(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "rpqbench: unknown experiment %q (use -list)\n", *exp)
		os.Exit(2)
	}
	run(r)
}
