// Command benchmark is the repo's one measurement harness: five named
// workloads, end-to-end metrics with regression bounds (BENCHMARK.json)
// and per-layer metrics for a tuple's journey, with the correctness
// gate in the same command. See README.md in this directory.
//
//	go run . [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-runs N] [-quick]
//	go run . -compare a.json b.json
//
// With -workload it runs that workload in this process and prints, as
// the last line of standard output, one JSON object with the keys
// correct, attempted, failed and metrics. Without it, it runs every
// workload in fresh child processes — untraced at -runs consecutive
// seeds, traced at the first — and writes the collected reports, one
// set of runs, to out/report-seed<N>.json.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
)

const (
	defaultSeed    = 1
	defaultSeconds = 10.0
	// procs is the GOMAXPROCS every workload runs under: one generator
	// goroutine (plus the subscriber in serve-durable) drives a system
	// that may use two cores.
	procs = 2
)

// measured is one named metric as measured.
type measured struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Raw     float64 `json:"raw"`     // before CPU-speed calibration (equal to value for counts)
	Samples int     `json:"samples"` // timings, tuples or repetitions behind the value
}

type machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"GOMAXPROCS"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	OS         string `json:"os_arch"`
}

// report is everything one run of one workload produced.
type report struct {
	Workload    string              `json:"workload"`
	Why         string              `json:"why"`
	Seed        int64               `json:"seed"`
	Seconds     float64             `json:"seconds"`
	Trace       bool                `json:"trace"`
	Quick       bool                `json:"quick"`
	Claim       *string             `json:"claim"` // this harness claims no gain
	Machine     machine             `json:"machine"`
	Sizes       map[string]int      `json:"sizes"`
	Metrics     map[string]measured `json:"metrics"`
	Diagnostics map[string]float64  `json:"diagnostics"`
	Stream      streamHash          `json:"result_stream"`
	Attempted   int                 `json:"attempted"`
	Failed      int                 `json:"failed"`
	Correct     bool                `json:"correct"`
	Errors      []string            `json:"errors,omitempty"`
}

func (r *report) metric(name string, value float64, unit string, raw float64, samples int) {
	r.Metrics[name] = measured{Value: value, Unit: unit, Raw: raw, Samples: samples}
}

// contract is the part of BENCHMARK.json the harness reads.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadContract(path string) (*contract, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// here is the benchmark's own directory: the working directory when
// run with `go run .`, or benchmark/ below it when started from the
// repository root by run.sh.
func here() string {
	if _, err := os.Stat("golden.json"); err == nil {
		return "."
	}
	return "benchmark"
}

func main() {
	workload := flag.String("workload", "", "run one workload in this process (default: all, each in a child process)")
	seed := flag.Int64("seed", defaultSeed, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", defaultSeconds, "how long the measured segment runs")
	trace := flag.Int("trace", 0, "1: the traced run, printing the per-layer metrics; 0: the untraced run, printing the end-to-end metrics")
	quick := flag.Bool("quick", false, "smoke sizing: every metric once, in about a second per run")
	runs := flag.Int("runs", 1, "without -workload: untraced runs per workload, at consecutive seeds from -seed")
	compare := flag.Bool("compare", false, "compare two sets of runs: -compare a.json b.json")
	flag.Parse()
	runtime.GOMAXPROCS(procs)

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare a.json b.json"))
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), filepath.Join(here(), "..", "BENCHMARK.json")))
	case *workload == "":
		os.Exit(runAll(*seed, *runs, *seconds, *quick))
	}
	s, ok := specByName(*workload)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	rep := runOne(s, *seed, *seconds, *trace != 0, *quick, here())
	printReport(rep)
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runOne runs one workload in this process. dir is the benchmark's
// directory: golden.json is read from it and everything written goes
// below dir/out.
func runOne(s spec, seed int64, seconds float64, trace, quick bool, dir string) *report {
	rep := &report{
		Workload: s.name, Why: s.why, Seed: seed, Seconds: seconds, Trace: trace, Quick: quick,
		Machine: machine{
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: cmp.Or(os.Getenv("BENCH_COMMIT"), "unknown"), OS: runtime.GOOS + "/" + runtime.GOARCH,
		},
		Sizes: map[string]int{}, Metrics: map[string]measured{}, Diagnostics: map[string]float64{},
	}
	r := &run{cal: newCalibrator(), s: s, sz: fullSizing, seed: seed, seconds: seconds, outDir: filepath.Join(dir, "out"), rep: rep}
	if quick {
		r.s, r.sz = s.quick(), quickSizing
	}
	err := os.MkdirAll(r.outDir, 0o755)
	if err == nil {
		r.tmp, err = scratch(r.outDir, s.name)
	}
	if err == nil {
		defer removeAll(r.tmp)
		if trace {
			err = r.traced()
		} else {
			err = r.endToEnd()
			if err == nil && !quick {
				r.checkGolden(filepath.Join(dir, "golden.json"))
			}
		}
	}
	if err != nil {
		rep.Errors = append(rep.Errors, err.Error())
		rep.Failed = max(rep.Failed, 1)
	}
	rep.Attempted = max(rep.Attempted, 1)
	rep.Correct = rep.Failed == 0
	kind := "e2e"
	if trace {
		kind = "trace"
	}
	if werr := writeJSON(filepath.Join(r.outDir, fmt.Sprintf("%s-%s-seed%d.json", kind, s.name, seed)), rep); werr != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", werr)
	}
	return rep
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printReport prints every metric by name with its unit, then — as the
// last line — the one JSON object the contract prescribes.
func printReport(rep *report) {
	mode := "untraced: end-to-end metrics"
	if rep.Trace {
		mode = "traced: per-layer metrics"
	}
	fmt.Printf("# %s seed=%d seconds=%g (%s) nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		rep.Workload, rep.Seed, rep.Seconds, mode, rep.Machine.NumCPU, rep.Machine.GOMAXPROCS, rep.Machine.GoVersion, rep.Machine.Commit)
	for _, name := range slices.Sorted(maps.Keys(rep.Sizes)) {
		fmt.Printf("size  %-44s %d\n", name, rep.Sizes[name])
	}
	for _, name := range slices.Sorted(maps.Keys(rep.Metrics)) {
		m := rep.Metrics[name]
		fmt.Printf("metric %-43s %14.4f %-6s (raw %.4f, n=%d)\n", name, m.Value, m.Unit, m.Raw, m.Samples)
	}
	for _, name := range slices.Sorted(maps.Keys(rep.Diagnostics)) {
		fmt.Printf("diag  %-44s %14.4f\n", name, rep.Diagnostics[name])
	}
	for _, e := range rep.Errors {
		fmt.Printf("FAILED %s\n", e)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]value{}}
	for name, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			continue // not encodable; the missing name fails the run's readers loudly
		}
		last.Metrics[name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(last)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// runAll runs every workload, each run in a fresh child process: the
// untraced run at runs consecutive seeds, the traced run at the first.
// It collects the reports the children wrote into one set of runs.
func runAll(seed int64, runs int, seconds float64, quick bool) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	dir := here()
	var reports []*report
	status := 0
	child := func(s spec, seed int64, trace int) {
		args := []string{"-workload", s.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace)}
		if quick {
			args = append(args, "-quick")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s seed=%d trace=%d: %v\n", s.name, seed, trace, err)
			status = 1
		}
		kind := [2]string{"e2e", "trace"}[trace]
		rep, err := loadReport(filepath.Join(dir, "out", fmt.Sprintf("%s-%s-seed%d.json", kind, s.name, seed)))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			status = 1
			return
		}
		reports = append(reports, rep)
	}
	for _, s := range specs {
		for i := 0; i < runs; i++ {
			child(s, seed+int64(i), 0)
		}
		child(s, seed, 1)
	}
	path := filepath.Join(dir, "out", fmt.Sprintf("report-seed%d.json", seed))
	if err := writeJSON(path, reports); err != nil {
		fatal(err)
	}
	fmt.Println("# wrote", path)
	return status
}

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}
