// Benchmarks regenerating the cost measurements behind every table and
// figure of the paper's evaluation (§5), one benchmark family per
// exhibit. Each op is the processing of one streaming graph tuple
// unless noted otherwise; compare ns/op across sub-benchmarks to read
// the paper's orderings (run `go test -bench=. -benchmem`).
//
// The experiment drivers in internal/experiments print the full
// tables; these benchmarks are the stable, `testing.B`-native view of
// the same quantities.
package streamrpq_test

import (
	"sync"
	"testing"

	"streamrpq/internal/automaton"
	"streamrpq/internal/baseline"
	"streamrpq/internal/core"
	"streamrpq/internal/datasets"
	"streamrpq/internal/pattern"
	"streamrpq/internal/window"
	"streamrpq/internal/workload"
)

const benchStream = 20000 // tuples per generated benchmark stream

var (
	benchOnce sync.Once
	benchYago *datasets.Dataset
	benchLDBC *datasets.Dataset
	benchSO   *datasets.Dataset
	benchGM   *datasets.Dataset
)

func benchData() {
	benchOnce.Do(func() {
		benchYago = datasets.Yago(datasets.DefaultYago(benchStream))
		benchLDBC = datasets.LDBC(datasets.DefaultLDBC(benchStream))
		benchSO = datasets.SO(datasets.DefaultSO(benchStream))
		benchGM = datasets.GMark(datasets.DefaultGMark(benchStream))
	})
}

// replay feeds b.N tuples to the engine, rebasing timestamps on each
// pass over the stream so they stay non-decreasing.
func replay(b *testing.B, engine core.Engine, d *datasets.Dataset) {
	b.Helper()
	span := d.Tuples[len(d.Tuples)-1].TS + 1
	var offset int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := d.Tuples[i%len(d.Tuples)]
		if i > 0 && i%len(d.Tuples) == 0 {
			offset += span
		}
		t.TS += offset
		engine.Process(t)
	}
}

func benchWindow(d *datasets.Dataset) window.Spec {
	span := d.Tuples[len(d.Tuples)-1].TS + 1
	size := span / 8
	if size < 16 {
		size = 16
	}
	return window.Spec{Size: size, Slide: max(1, size/10)}
}

func rapqBench(b *testing.B, d *datasets.Dataset, queryName string) {
	qs := workload.MustQueries(d)
	q, ok := workload.ByName(qs, queryName)
	if !ok {
		b.Skipf("query %s not applicable to %s", queryName, d.Name)
	}
	engine := core.NewRAPQ(q.Bound, benchWindow(d))
	replay(b, engine, d)
}

// BenchmarkFig4 measures RAPQ per-tuple cost for every workload query
// on every dataset (Figure 4 a,b,c). Throughput (edges/s) is 1e9/ns-op.
func BenchmarkFig4(b *testing.B) {
	benchData()
	for _, d := range []*datasets.Dataset{benchYago, benchLDBC, benchSO} {
		for _, name := range workload.Names(d.Name) {
			d, name := d, name
			b.Run(d.Name+"/"+name, func(b *testing.B) { rapqBench(b, d, name) })
		}
	}
}

// BenchmarkFig5 measures the index-heavy queries whose Δ size explains
// Figure 5's throughput ordering on SO.
func BenchmarkFig5(b *testing.B) {
	benchData()
	for _, name := range []string{"Q3", "Q6", "Q4", "Q11"} {
		name := name
		b.Run("SO/"+name, func(b *testing.B) { rapqBench(b, benchSO, name) })
	}
}

// BenchmarkFig6Window sweeps the window size |W| (Figure 6a): per-tuple
// cost grows with the window.
func BenchmarkFig6Window(b *testing.B) {
	benchData()
	d := benchYago
	span := d.Tuples[len(d.Tuples)-1].TS + 1
	unit := span / 16
	qs := workload.MustQueries(d)
	q, _ := workload.ByName(qs, "Q2")
	for mult := int64(1); mult <= 4; mult++ {
		mult := mult
		b.Run(sizeName(mult), func(b *testing.B) {
			spec := window.Spec{Size: mult * unit, Slide: max(1, mult*unit/10)}
			engine := core.NewRAPQ(q.Bound, spec)
			replay(b, engine, d)
		})
	}
}

func sizeName(mult int64) string {
	return []string{"", "W1", "W2", "W3", "W4"}[mult]
}

// BenchmarkFig6Slide sweeps the slide interval β (Figure 6b): the
// amortized per-tuple cost stays flat.
func BenchmarkFig6Slide(b *testing.B) {
	benchData()
	d := benchYago
	span := d.Tuples[len(d.Tuples)-1].TS + 1
	size := span / 8
	qs := workload.MustQueries(d)
	q, _ := workload.ByName(qs, "Q2")
	for mult := int64(1); mult <= 4; mult++ {
		mult := mult
		b.Run(sizeName(mult), func(b *testing.B) {
			spec := window.Spec{Size: size, Slide: max(1, mult*size/20)}
			engine := core.NewRAPQ(q.Bound, spec)
			replay(b, engine, d)
		})
	}
}

// BenchmarkFig7Compile measures query-registration cost: expression →
// Thompson NFA → DFA → minimal DFA (the pipeline behind Figure 7).
func BenchmarkFig7Compile(b *testing.B) {
	labels := []string{"p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7"}
	qs := datasets.GMarkQueries(100, labels, 2, 20, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		automaton.Compile(qs[i%len(qs)].Expr)
	}
}

// BenchmarkFig8K measures per-tuple cost across automaton sizes k on
// the gMark workload (Figure 8): no strong k dependence is expected.
func BenchmarkFig8K(b *testing.B) {
	benchData()
	d := benchGM
	qs := datasets.GMarkQueries(100, d.Labels, 2, 20, 1)
	// One representative query per distinct k.
	byK := map[int]datasets.GMarkQuery{}
	for _, q := range qs {
		k := automaton.Compile(q.Expr).NumStates()
		if _, ok := byK[k]; !ok && k >= 2 && k <= 8 {
			byK[k] = q
		}
	}
	for k := 2; k <= 8; k++ {
		q, ok := byK[k]
		if !ok {
			continue
		}
		k := k
		b.Run("k"+string(rune('0'+k)), func(b *testing.B) {
			bound := automaton.Compile(q.Expr).Bind(d.LabelID, len(d.Labels))
			engine := core.NewRAPQ(bound, benchWindow(d))
			replay(b, engine, d)
		})
	}
}

// BenchmarkFig9Delta contrasts a low-selectivity and a high-selectivity
// query at comparable k (Figure 9): the Δ index size drives cost.
func BenchmarkFig9Delta(b *testing.B) {
	benchData()
	d := benchGM
	cases := []struct {
		name string
		expr string
	}{
		{"smallDelta", "p6/p7"},       // rare labels, fixed length
		{"largeDelta", "(p0|p1|p2)*"}, // closure over frequent labels
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			bound := automaton.Compile(pattern.MustParse(c.expr)).Bind(d.LabelID, len(d.Labels))
			engine := core.NewRAPQ(bound, benchWindow(d))
			replay(b, engine, d)
		})
	}
}

// BenchmarkFig10Deletions measures per-tuple cost at increasing
// explicit-deletion ratios (Figure 10).
func BenchmarkFig10Deletions(b *testing.B) {
	benchData()
	base := benchYago
	qs := workload.MustQueries(base)
	q, _ := workload.ByName(qs, "Q2")
	for _, pct := range []int{0, 2, 6, 10} {
		pct := pct
		b.Run(delName(pct), func(b *testing.B) {
			d := base
			if pct > 0 {
				d = base.WithDeletions(float64(pct)/100, int64(pct))
			}
			engine := core.NewRAPQ(q.Bound, benchWindow(base))
			replay(b, engine, d)
		})
	}
}

func delName(pct int) string {
	switch pct {
	case 0:
		return "del0"
	case 2:
		return "del2"
	case 6:
		return "del6"
	default:
		return "del10"
	}
}

// BenchmarkTable4RSPQ measures the simple-path engine against the
// arbitrary-path engine on the same query and dataset (Table 4's
// overhead column).
func BenchmarkTable4RSPQ(b *testing.B) {
	benchData()
	for _, tc := range []struct {
		d    *datasets.Dataset
		name string
	}{
		{benchYago, "Q1"}, {benchYago, "Q7"}, {benchYago, "Q11"},
		{benchSO, "Q1"}, {benchSO, "Q4"}, {benchSO, "Q11"},
	} {
		tc := tc
		qs := workload.MustQueries(tc.d)
		q, _ := workload.ByName(qs, tc.name)
		b.Run(tc.d.Name+"/"+tc.name+"/RAPQ", func(b *testing.B) {
			engine := core.NewRAPQ(q.Bound, benchWindow(tc.d))
			replay(b, engine, tc.d)
		})
		b.Run(tc.d.Name+"/"+tc.name+"/RSPQ", func(b *testing.B) {
			engine := core.NewRSPQ(q.Bound, benchWindow(tc.d), core.WithMaxExtends(1<<14))
			replay(b, engine, tc.d)
		})
	}
}

// BenchmarkFig11Baseline contrasts the incremental engine with the
// per-tuple rescan baseline (Figure 11). The rescan op cost is the
// full batch evaluation a static engine pays per arriving tuple.
func BenchmarkFig11Baseline(b *testing.B) {
	benchData()
	// A short stream keeps the baseline tractable.
	d := datasets.Yago(datasets.DefaultYago(2000))
	qs := workload.MustQueries(d)
	q, _ := workload.ByName(qs, "Q2")
	spec := benchWindow(d)
	b.Run("RAPQ", func(b *testing.B) {
		engine := core.NewRAPQ(q.Bound, spec)
		replay(b, engine, d)
	})
	b.Run("Rescan", func(b *testing.B) {
		engine := baseline.NewRescan(q.Bound, spec)
		replay(b, engine, d)
	})
}

// BenchmarkTable1Amortized probes the amortized insert bound of Table 1
// directly: per-tuple cost of the Δ maintenance at two window sizes
// differing 4×; the ratio reflects the O(n) dependence on window
// population.
func BenchmarkTable1Amortized(b *testing.B) {
	benchData()
	d := benchSO
	qs := workload.MustQueries(d)
	q, _ := workload.ByName(qs, "Q2")
	span := d.Tuples[len(d.Tuples)-1].TS + 1
	for _, tc := range []struct {
		name string
		size int64
	}{
		{"smallWindow", span / 32},
		{"largeWindow", span / 8},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			spec := window.Spec{Size: max(16, tc.size), Slide: max(1, tc.size/10)}
			engine := core.NewRAPQ(q.Bound, spec)
			replay(b, engine, d)
		})
	}
}
