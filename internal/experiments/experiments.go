// Package experiments regenerates every table and figure of the
// evaluation section (§5) of Pacaci et al. (SIGMOD 2020) on the
// synthetic datasets of internal/datasets. Each driver prints the same
// rows/series the paper reports; README.md "Benchmarks and experiments"
// says how to run them and where performance claims are made instead.
//
// Absolute numbers differ from the paper (laptop-scale synthetic
// streams vs. a 32-core server on 63M–220M-edge graphs); the
// reproduction targets are the orderings and trends: which queries and
// datasets are slow, how costs scale with |W|, β, k, Δ, the deletion
// ratio, and the gap to the rescan baseline.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"streamrpq/internal/bench"
	"streamrpq/internal/core"
	"streamrpq/internal/datasets"
	"streamrpq/internal/window"
	"streamrpq/internal/workload"
)

// Config scales and directs an experiment run.
type Config struct {
	// Scale is the stream length (number of tuples) of the primary
	// dataset runs. Sweeps and baseline comparisons derive smaller
	// streams from it.
	Scale int
	// Out receives the human-readable tables.
	Out io.Writer
	// Seed makes dataset generation reproducible.
	Seed int64
}

// Runner is one registered experiment.
type Runner struct {
	ID    string // e.g. "fig4", "table4"
	Title string
	Run   func(cfg Config) error
}

// All returns the experiment registry in paper order.
func All() []Runner {
	return []Runner{
		{"table1", "Amortized time complexities (Table 1)", Table1},
		{"fig4", "Throughput & tail latency per query and dataset (Figure 4)", Fig4},
		{"fig5", "Δ tree-index size on SO (Figure 5)", Fig5},
		{"fig6", "Latency & expiry cost vs window size and slide interval (Figure 6)", Fig6},
		{"fig7", "DFA size vs query size on the gMark workload (Figure 7)", Fig7},
		{"fig8", "Throughput vs automaton size k (Figure 8)", Fig8},
		{"fig9", "Throughput vs Δ size for k=5 queries (Figure 9)", Fig9},
		{"fig10", "Tail latency vs explicit-deletion ratio (Figure 10)", Fig10},
		{"table4", "Simple-path semantics: feasibility & overhead (Table 4)", Table4},
		{"fig11", "Speedup over the per-tuple rescan baseline (Figure 11)", Fig11},
		{"ablation", "Design-choice ablation: sequential engine rows, multi-query sharing", Ablation},
	}
}

// ByID returns the runner with the given id.
func ByID(id string) (Runner, bool) {
	for _, r := range All() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// ---- shared helpers ----

// streamTicks returns the time span of a generated stream in ticks.
func streamTicks(d *datasets.Dataset) int64 {
	if len(d.Tuples) == 0 {
		return 0
	}
	return d.Tuples[len(d.Tuples)-1].TS - d.Tuples[0].TS + 1
}

// defaultWindow derives the per-dataset default window the drivers
// use: an eighth of the stream span, sliding a tenth of the window —
// the same order of magnitude relative to stream length as the paper's
// per-dataset defaults (e.g. 10M-edge windows over Yago2s, 1-month
// windows over 8 years of SO).
func defaultWindow(d *datasets.Dataset) window.Spec {
	t := streamTicks(d)
	size := t / 8
	if size < 16 {
		size = 16
	}
	slide := size / 10
	if slide < 1 {
		slide = 1
	}
	return window.Spec{Size: size, Slide: slide}
}

// runRAPQ measures Algorithm RAPQ for one query over one dataset.
func runRAPQ(d *datasets.Dataset, q workload.Query, spec window.Spec) bench.Result {
	engine := core.NewRAPQ(q.Bound, spec)
	return bench.Run(engine, d.Tuples, bench.RelevantLabels(q.Bound.Relevant), q.Name, d.Name)
}

// runRSPQ measures Algorithm RSPQ; maxExtends>0 bounds the per-tuple
// cascade so conflict-heavy (NP-hard) runs terminate and can be
// reported as infeasible.
func runRSPQ(d *datasets.Dataset, q workload.Query, spec window.Spec, maxExtends int64) (bench.Result, bool) {
	engine := core.NewRSPQ(q.Bound, spec, core.WithMaxExtends(maxExtends))
	res := bench.Run(engine, d.Tuples, bench.RelevantLabels(q.Bound.Relevant), q.Name, d.Name)
	feasible := maxExtends <= 0 || !engine.BudgetExceeded()
	return res, feasible
}

// table renders an aligned text table.
func table(w io.Writer, headers []string, rows [][]string) {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
}

// eps formats edges-per-second.
func eps(v float64) string { return fmt.Sprintf("%.0f", v) }
