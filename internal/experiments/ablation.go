package experiments

import (
	"fmt"
	"time"

	"streamrpq/internal/bench"
	"streamrpq/internal/core"
	"streamrpq/internal/datasets"
	"streamrpq/internal/workload"
)

// AblationRow measures one engine variant on the reference workload.
type AblationRow struct {
	Variant    string
	Query      string
	Throughput float64
	P99        time.Duration
	Mean       time.Duration
}

// AblationData measures the sequential engine on two Yago queries and
// quantifies multi-query sharing of the window content (§7 future
// work), which the paper describes but does not ablate: the aggregate
// cost of running the whole workload in one shared evaluator vs
// separate engines. Yago is sparse, so Δ holds many trees while each
// vertex occurs in few of them — the regime the inverted index targets.
func AblationData(cfg Config) ([]AblationRow, []string, error) {
	d := datasets.Yago(datasets.DefaultYago(cfg.Scale / 2))
	spec := defaultWindow(d)
	qs := workload.MustQueries(d)
	var rows []AblationRow

	for _, name := range []string{"Q2", "Q7"} {
		q, ok := workload.ByName(qs, name)
		if !ok {
			continue
		}
		rel := bench.RelevantLabels(q.Bound.Relevant)

		seq := bench.Run(core.NewRAPQ(q.Bound, spec), d.Tuples, rel, q.Name, d.Name)
		rows = append(rows, AblationRow{Variant: "indexed (default)", Query: q.Name,
			Throughput: seq.Throughput, P99: seq.P99, Mean: seq.Mean})
	}

	// Multi-query sharing: run the full workload in one shared
	// evaluator vs one engine per query, comparing total wall time.
	var notes []string
	multi, err := core.NewMulti(spec)
	if err != nil {
		return nil, nil, err
	}
	for _, q := range qs {
		if _, err := multi.Add(q.Bound); err != nil {
			return nil, nil, err
		}
	}
	start := time.Now()
	for _, t := range d.Tuples {
		multi.Process(t)
	}
	sharedTime := time.Since(start)

	start = time.Now()
	engines := make([]*core.RAPQ, len(qs))
	for i, q := range qs {
		engines[i] = core.NewRAPQ(q.Bound, spec)
	}
	for _, t := range d.Tuples {
		for _, e := range engines {
			e.Process(t)
		}
	}
	soloTime := time.Since(start)
	notes = append(notes,
		fmt.Sprintf("multi-query sharing: %d queries over %d tuples: shared %v vs separate %v (%.2fx)",
			len(qs), len(d.Tuples), sharedTime.Round(time.Millisecond),
			soloTime.Round(time.Millisecond), float64(soloTime)/float64(sharedTime)))
	return rows, notes, nil
}

// Ablation prints the design-choice measurements.
func Ablation(cfg Config) error {
	rows, notes, err := AblationData(cfg)
	if err != nil {
		return err
	}
	header(cfg.Out, "Ablation: engine variants on Yago")
	var buf [][]string
	for _, r := range rows {
		buf = append(buf, []string{r.Query, r.Variant, eps(r.Throughput), r.P99.String(), r.Mean.String()})
	}
	table(cfg.Out, []string{"Query", "Variant", "Throughput (edges/s)", "p99", "Mean"}, buf)
	for _, n := range notes {
		fmt.Fprintln(cfg.Out, "  "+n)
	}
	return nil
}
