package streamrpq_test

import (
	"cmp"
	"maps"
	"slices"
	"testing"

	"streamrpq/internal/automaton"
	"streamrpq/internal/core"
	"streamrpq/internal/datasets"
	"streamrpq/internal/window"
	"streamrpq/internal/workload"
)

// table4Budget bounds RSPQ's per-tuple Extend cascade. A query that
// trips it is infeasible under simple-path semantics (the NP-hard
// regime of §4); feasible queries stay far below it per tuple.
const table4Budget = 1 << 14

// paperStream is the tuple count of every run below unless a row says
// otherwise.
const paperStream = 2000

// TestPaperClaims states the paper's evaluation claims (§4–§5 of Pacaci
// et al., SIGMOD 2020) as predicates over exact counters of small
// deterministic runs: Insert calls, Δ nodes, answer pairs, the RSPQ budget
// and DFA states, never wall-clock time. The timing view of the same
// exhibits is bench_test.go. A row that fails names a paper claim the
// engine no longer reproduces on the synthetic datasets.
func TestPaperClaims(t *testing.T) {
	for _, row := range []struct {
		fig   string
		check func(t *testing.T)
	}{
		{"Fig4", claimFig4},
		{"Fig5", claimFig5},
		{"Fig6a", claimFig6Window},
		{"Fig6b", claimFig6Slide},
		{"Fig7", claimFig7},
		{"Fig9", claimFig9},
		{"Fig10", claimFig10},
		{"Table4", claimTable4},
		{"Fig11", claimFig11},
		{"Containment", claimContainment},
	} {
		t.Run(row.fig, func(t *testing.T) {
			t.Parallel()
			row.check(t)
		})
	}
}

// rapqRun replays d through a standalone RAPQ engine and returns its
// counters.
func rapqRun(d *datasets.Dataset, b *automaton.Bound, spec window.Spec) core.Stats {
	e := core.NewRAPQ(b, spec)
	for _, tu := range d.Tuples {
		e.Process(tu)
	}
	return e.Stats()
}

// perTuple is Insert calls per relevant tuple: tuples the engine
// offered to its Δ index, deletions included.
func perTuple(st core.Stats) float64 {
	return float64(st.InsertCalls) / float64(st.TuplesSeen-st.TuplesDropped)
}

func queryNamed(t *testing.T, d *datasets.Dataset, name string) workload.Query {
	t.Helper()
	q, ok := workload.ByName(workload.MustQueries(d), name)
	if !ok {
		t.Fatalf("%s has no query %s", d.Name, name)
	}
	return q
}

// claimFig4 (§5.2): every workload query runs on every dataset, and on
// SO the non-recursive Q11 does less Δ work per tuple than the
// multi-star Q3.
func claimFig4(t *testing.T) {
	work := map[string]float64{}
	for _, d := range []*datasets.Dataset{
		datasets.Yago(datasets.DefaultYago(paperStream)),
		datasets.LDBC(datasets.DefaultLDBC(paperStream)),
		datasets.SO(datasets.DefaultSO(paperStream)),
	} {
		for _, q := range workload.MustQueries(d) {
			st := rapqRun(d, q.Bound, benchWindow(d))
			if st.TuplesSeen == st.TuplesDropped || st.InsertCalls == 0 {
				t.Errorf("%s/%s: %d relevant tuples, %d Insert calls", d.Name, q.Name, st.TuplesSeen-st.TuplesDropped, st.InsertCalls)
			}
			work[d.Name+"/"+q.Name] = perTuple(st)
		}
	}
	if len(work) != 29 {
		t.Errorf("%d (dataset, query) runs, want 11 (Yago) + 7 (LDBC) + 11 (SO) = 29", len(work))
	}
	if work["SO/Q11"] >= work["SO/Q3"] {
		t.Errorf("SO: Q11 makes %.2f Insert calls per tuple, not fewer than Q3's %.2f", work["SO/Q11"], work["SO/Q3"])
	}
}

// claimFig5: on SO, the closure over the whole alphabet (Q4) builds a
// larger Δ index than the non-recursive Q11.
func claimFig5(t *testing.T) {
	d := datasets.SO(datasets.DefaultSO(paperStream))
	nodes := map[string]int{}
	for _, q := range workload.MustQueries(d) {
		nodes[q.Name] = rapqRun(d, q.Bound, benchWindow(d)).Nodes
	}
	if len(nodes) != 11 {
		t.Errorf("SO has %d queries, want 11", len(nodes))
	}
	if nodes["Q4"] <= nodes["Q11"] {
		t.Errorf("Q4 builds %d Δ nodes, not more than Q11's %d", nodes["Q4"], nodes["Q11"])
	}
}

// fig6Stream is the SO length of both Fig. 6 sweeps, 250 ticks. Their
// window sizes are explicit: span/64 and span/32 both clamp to 16.
const fig6Stream = 4000

var fig6Queries = []string{"Q2", "Q4", "Q11"}

// claimFig6Window (Fig. 6a): on SO, Insert calls per tuple grow with
// |W|, and more slowly than |W| does.
func claimFig6Window(t *testing.T) {
	d := datasets.SO(datasets.DefaultSO(fig6Stream))
	sizes := []int64{16, 31, 62}
	for _, name := range fig6Queries {
		q := queryNamed(t, d, name)
		var calls []float64
		for _, size := range sizes {
			calls = append(calls, perTuple(rapqRun(d, q.Bound, window.Spec{Size: size, Slide: max(1, size/10)})))
		}
		for i := 1; i < len(sizes); i++ {
			grow, wider := calls[i]/calls[i-1], float64(sizes[i])/float64(sizes[i-1])
			if grow <= 1 || grow >= wider {
				t.Errorf("%s: |W| %d → %d (×%.2f) changes Insert calls per tuple %.2f → %.2f (×%.2f), want growth in (1, ×%.2f)",
					name, sizes[i-1], sizes[i], wider, calls[i-1], calls[i], grow, wider)
			}
		}
	}
}

// claimFig6Slide (Fig. 6b): at a fixed |W| on SO, Insert calls per
// tuple are flat in the slide interval β.
func claimFig6Slide(t *testing.T) {
	d := datasets.SO(datasets.DefaultSO(fig6Stream))
	for _, name := range fig6Queries {
		q := queryNamed(t, d, name)
		var calls []float64
		for _, slide := range []int64{1, 3, 6, 15} {
			calls = append(calls, perTuple(rapqRun(d, q.Bound, window.Spec{Size: 31, Slide: slide})))
		}
		if lo, hi := slices.Min(calls), slices.Max(calls); hi > 1.1*lo {
			t.Errorf("%s: Insert calls per tuple %.2f over β = 1, 3, 6, 15 spread %.2f×, want ≤ 1.1×", name, calls, hi/lo)
		}
	}
}

// gmarkQueries is the 100-query synthetic workload of §5.3.
func gmarkQueries(d *datasets.Dataset) []datasets.GMarkQuery {
	return datasets.GMarkQueries(100, d.Labels, 2, 20, 1)
}

// claimFig7: the minimal DFA of a practical query does not blow up. On
// the gMark workload k never exceeds |Q| + 1, a bound on the size of
// the query's position automaton and well inside the linear envelope
// 4·|Q| + 4.
func claimFig7(t *testing.T) {
	qs := gmarkQueries(datasets.GMark(datasets.DefaultGMark(1000)))
	if len(qs) != 100 {
		t.Fatalf("%d gMark queries, want 100", len(qs))
	}
	for _, q := range qs {
		if k := automaton.Compile(q.Expr).NumStates(); k <= 0 || k > q.Size+1 {
			t.Errorf("%s: k = %d outside (0, |Q|+1] for |Q| = %d", q.Name, k, q.Size)
		}
	}
}

// claimFig9: at a fixed automaton size (k = 5) the Δ index size, not k,
// drives the cost: the half of the queries with the larger final Δ
// makes more Insert calls per tuple, by median.
func claimFig9(t *testing.T) {
	d := datasets.GMark(datasets.DefaultGMark(paperStream))
	type point struct {
		nodes int
		calls float64
	}
	var pts []point
	for _, q := range gmarkQueries(d) {
		dfa := automaton.Compile(q.Expr)
		if dfa.NumStates() != 5 {
			continue
		}
		st := rapqRun(d, dfa.Bind(d.LabelID, len(d.Labels)), benchWindow(d))
		pts = append(pts, point{st.Nodes, perTuple(st)})
	}
	slices.SortFunc(pts, func(a, b point) int { return cmp.Compare(a.nodes, b.nodes) })
	if len(pts) < 8 {
		t.Fatalf("%d gMark queries with k = 5, want ≥ 8", len(pts))
	}
	median := func(ps []point) float64 {
		c := make([]float64, len(ps))
		for i, p := range ps {
			c[i] = p.calls
		}
		slices.Sort(c)
		return (c[(len(c)-1)/2] + c[len(c)/2]) / 2
	}
	small, large := pts[:len(pts)/2], pts[(len(pts)+1)/2:]
	if ms, ml := median(small), median(large); ml <= ms {
		t.Errorf("queries with the larger Δ have median %.2f Insert calls per tuple, not above the smaller half's %.2f", ml, ms)
	}
}

// claimFig10 (§5.4): explicit deletions do not raise the Δ work on
// Yago, deletion repairs included: deleted edges shrink the snapshot
// graph and the Δ index, which offsets the repairs. WithDeletions keeps
// the stream length (a deletion takes an insert's place), so the unit
// is Insert calls per stream tuple. One deletion sample is too noisy at
// 2 %: on Q4, 6 of 20 samples read up to 0.8 % above the append-only
// run. So the sweep compares means over fig10Samples samples, and at
// 10 % every sample must be below the append-only run.
func claimFig10(t *testing.T) {
	const fig10Samples = 8
	base := datasets.Yago(datasets.DefaultYago(paperStream))
	spec := benchWindow(base)
	perStreamTuple := func(d *datasets.Dataset, q workload.Query) float64 {
		st := rapqRun(d, q.Bound, spec)
		return float64(st.InsertCalls) / float64(st.TuplesSeen)
	}
	for _, name := range []string{"Q2", "Q4", "Q7"} {
		q := queryNamed(t, base, name)
		appendOnly := perStreamTuple(base, q)
		means := []float64{appendOnly}
		for _, pct := range []int{2, 6, 10} {
			var sum float64
			for seed := int64(1); seed <= fig10Samples; seed++ {
				calls := perStreamTuple(base.WithDeletions(float64(pct)/100, seed), q)
				if pct == 10 && calls >= appendOnly {
					t.Errorf("%s: 10 %% deletions (seed %d) cost %.2f Insert calls per tuple, not below the append-only %.2f", name, seed, calls, appendOnly)
				}
				sum += calls
			}
			means = append(means, sum/fig10Samples)
		}
		if !slices.IsSortedFunc(means, func(a, b float64) int { return cmp.Compare(b, a) }) {
			t.Errorf("%s: mean Insert calls per tuple %.2f rise with the deletion ratio 0, 2, 6, 10 %%", name, means)
		}
	}
}

// table4Stream is each dataset's length in the Table 4 row.
const table4Stream = 500

// claimTable4 (§5.5): which queries are feasible under simple-path
// semantics, at table4Stream tuples per dataset. The restricted queries
// Q1 (a*) and Q4 ((a|b|c)*) are conflict-free and Q11's cascades are
// depth-bounded, so they stay within the budget at this scale. The row
// holds at this scale only: WithMaxExtends counts a tuple's Extend calls
// whatever their cause, so a long conflict-free cascade trips it too,
// and at 20 000 tuples per dataset the conflict-free Yago Q1, Q4 and Q6
// and SO Q4 exceed the 2^14 budget with no conflict found. Q9
// ((a|b|c)+) is not conflict-free: ε is in the suffix language of its
// final state but not of its start state, so a cycle back to a tree
// root conflicts (the paper's Table 4 leaves Q9 out of SO's list too).
// The sparse Yago graph is friendlier to simple paths than the dense
// cyclic SO graph, and LDBC's 7 queries all finish.
func claimTable4(t *testing.T) {
	feasible := map[string]int{}
	for _, d := range []*datasets.Dataset{
		datasets.Yago(datasets.DefaultYago(table4Stream)),
		datasets.SO(datasets.DefaultSO(table4Stream)),
		datasets.LDBC(datasets.DefaultLDBC(table4Stream)),
	} {
		for _, q := range workload.MustQueries(d) {
			e := core.NewRSPQ(q.Bound, benchWindow(d), core.WithMaxExtends(table4Budget))
			for _, tu := range d.Tuples {
				e.Process(tu)
			}
			if e.BudgetExceeded() {
				if q.Name == "Q1" || q.Name == "Q4" || q.Name == "Q11" {
					t.Errorf("%s/%s: restricted query exceeded the budget", d.Name, q.Name)
				}
				continue
			}
			feasible[d.Name]++
		}
	}
	if feasible["Yago"] < 10 {
		t.Errorf("Yago: %d feasible queries, want ≥ 10", feasible["Yago"])
	}
	if feasible["Yago"] < feasible["SO"] {
		t.Errorf("Yago has %d feasible queries, fewer than SO's %d", feasible["Yago"], feasible["SO"])
	}
	if feasible["LDBC"] != 7 {
		t.Errorf("LDBC: %d feasible queries, want all 7", feasible["LDBC"])
	}
}

// claimFig11 (§5.6): incremental evaluation beats re-evaluation. A
// persistent query on a static engine (baseline.Rescan) recomputes the
// window's whole answer set after every relevant insert; the pairs it
// re-derives bound its product-graph steps from below. RAPQ's total
// Insert calls are fewer on every Yago query. RAPQ's private graph holds
// exactly the rescan's window content, so the count runs on it.
func claimFig11(t *testing.T) {
	d := datasets.Yago(datasets.DefaultYago(1000))
	spec := benchWindow(d)
	qs := workload.MustQueries(d)
	if len(qs) != 11 {
		t.Fatalf("Yago has %d queries, want 11", len(qs))
	}
	for _, q := range qs {
		e := core.NewRAPQ(q.Bound, spec)
		var rescan int
		for _, tu := range d.Tuples {
			e.Process(tu)
			if q.Bound.Relevant(int(tu.Label)) {
				rescan += len(core.BatchWindowed(e.Graph(), q.Bound, tu.TS, spec.Size))
			}
		}
		calls := e.Stats().InsertCalls
		if calls >= int64(rescan) {
			t.Errorf("%s: RAPQ makes %d Insert calls, not fewer than the %d pairs a per-tuple rescan re-derives", q.Name, calls, rescan)
		}
	}
}

// claimContainment (§4): a query whose automaton has the suffix-language
// containment property has no conflicts on any graph, so the
// simple-path engine finds exactly the arbitrary-path engine's answers.
// The claim is on distinct (From, To) pairs with From ≠ To, not on the
// two streams: RSPQ emits 1.4–2.6× as many match records, mostly the
// same pairs at other timestamps, and RAPQ reports (x, x) pairs, which
// no simple path can, when a cycle reaches a final state other than the
// root's (26–34 pairs on Yago's and SO's Q6 and Q8; Q1 and Q4 show
// none).
func claimContainment(t *testing.T) {
	checked := 0
	for _, d := range []*datasets.Dataset{
		datasets.Yago(datasets.DefaultYago(1000)),
		datasets.SO(datasets.DefaultSO(1000)),
		datasets.LDBC(datasets.DefaultLDBC(1000)),
	} {
		spec := benchWindow(d)
		for _, q := range workload.MustQueries(d) {
			if !automaton.Compile(q.Expr).HasContainmentProperty() {
				continue
			}
			checked++
			ra, rs := core.NewCollector(), core.NewCollector()
			arb := core.NewRAPQ(q.Bound, spec, core.WithSink(ra))
			simple := core.NewRSPQ(q.Bound, spec, core.WithSink(rs))
			for _, tu := range d.Tuples {
				arb.Process(tu)
				simple.Process(tu)
			}
			if n := simple.Stats().ConflictsFound; n != 0 {
				t.Errorf("%s/%s: RSPQ found %d conflicts on a containment query", d.Name, q.Name, n)
			}
			a, s := distinctPairs(ra.Matched), distinctPairs(rs.Matched)
			if !maps.Equal(a, s) {
				t.Errorf("%s/%s: RAPQ reports %d distinct pairs, RSPQ %d, not the same set", d.Name, q.Name, len(a), len(s))
			}
			for _, m := range rs.Matched {
				if m.From == m.To {
					t.Errorf("%s/%s: RSPQ reports (%d, %d), which no simple path witnesses", d.Name, q.Name, m.From, m.To)
					break
				}
			}
		}
	}
	if checked != 10 {
		t.Errorf("%d workload queries have the containment property, want 10", checked)
	}
}

// distinctPairs is the set of (From, To) pairs with From ≠ To in ms.
func distinctPairs(ms []core.Match) map[core.Pair]bool {
	out := map[core.Pair]bool{}
	for _, m := range ms {
		if m.From != m.To {
			out[core.Pair{From: m.From, To: m.To}] = true
		}
	}
	return out
}
