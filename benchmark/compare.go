package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles prints, for two sets of runs (each file a JSON array of
// reports, as `-runs N` writes it), one row per workload × end-to-end
// metric: both medians, the relative change of b against a, the bound
// BENCHMARK.json fixes, and a verdict. The change is given with its
// base: (b − a) ÷ a, signed so that positive is worse. A row whose
// run-to-run spread (interquartile range ÷ median, on either side)
// exceeds the bound is unresolved, not within. It returns 1 if any row
// is worse.
func compareFiles(w io.Writer, pathA, pathB, contractPath string) int {
	c, err := loadContract(contractPath)
	if err != nil {
		fatal(err)
	}
	a, err := loadRuns(pathA)
	if err != nil {
		fatal(err)
	}
	b, err := loadRuns(pathB)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "%-18s %-18s %12s %12s %8s %6s %8s %8s  %s\n",
		"workload", "metric", "median a", "median b", "change", "bound", "spread a", "spread b", "verdict")
	status := 0
	for _, wl := range c.Workloads {
		for _, m := range c.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-18s %-18s missing in %s\n", wl.Name, m.Name, map[bool]string{true: pathA, false: pathB}[len(va) == 0])
				status = 1
				continue
			}
			row := judge(va, vb, m)
			fmt.Fprintf(w, "%-18s %-18s %12.4f %12.4f %+7.1f%% %5.0f%% %7.1f%% %7.1f%%  %s (n=%d,%d)\n",
				wl.Name, m.Name, row.medianA, row.medianB, 100*row.worse, 100*m.Bound, 100*row.spreadA, 100*row.spreadB, row.verdict, len(va), len(vb))
			if row.verdict == "worse" {
				status = 1
			}
		}
	}
	return status
}

type verdict struct {
	medianA, medianB float64
	worse            float64 // relative change of b against a, positive = worse
	spreadA, spreadB float64
	verdict          string
}

func judge(a, b []float64, m contractMetric) verdict {
	v := verdict{medianA: mid(a), medianB: mid(b), spreadA: spread(a), spreadB: spread(b)}
	v.worse = (v.medianB - v.medianA) / v.medianA
	if m.Better == "higher" {
		v.worse = -v.worse
	}
	switch {
	case v.spreadA > m.Bound || v.spreadB > m.Bound:
		v.verdict = "unresolved"
	case v.worse > m.Bound:
		v.verdict = "worse"
	default:
		v.verdict = "within"
	}
	return v
}

// mid is the median with the mean of the two middle values for an even
// count, the way the driver takes it.
func mid(xs []float64) float64 {
	return (quantile(xs, 0.5) + quantile(xs, 0.5+0.5/float64(len(xs)))) / 2
}

// loadRuns reads a set of runs and groups the untraced runs' metric
// values by workload and metric name.
func loadRuns(path string) (map[string]map[string][]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var reports []report
	if err := json.Unmarshal(data, &reports); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]map[string][]float64{}
	for _, rep := range reports {
		if rep.Trace {
			continue
		}
		if out[rep.Workload] == nil {
			out[rep.Workload] = map[string][]float64{}
		}
		for name, m := range rep.Metrics {
			out[rep.Workload][name] = append(out[rep.Workload][name], m.Value)
		}
	}
	return out, nil
}
