package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// tinyConfig keeps experiment smoke tests fast.
func tinyConfig(buf *bytes.Buffer) Config {
	return Config{Scale: 2000, Out: buf, Seed: 1}
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 11 {
		t.Fatalf("registry has %d experiments, want 11", len(all))
	}
	ids := map[string]bool{}
	for _, r := range all {
		if r.ID == "" || r.Title == "" || r.Run == nil {
			t.Errorf("incomplete runner %+v", r)
		}
		if ids[r.ID] {
			t.Errorf("duplicate id %s", r.ID)
		}
		ids[r.ID] = true
	}
	if _, ok := ByID("fig4"); !ok {
		t.Error("fig4 not found")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown id found")
	}
}

// TestAllExperimentsRun smoke-tests every driver end to end at tiny
// scale and sanity-checks the printed output.
func TestAllExperimentsRun(t *testing.T) {
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := r.Run(tinyConfig(&buf)); err != nil {
				t.Fatalf("%s: %v", r.ID, err)
			}
			out := buf.String()
			if len(out) < 50 {
				t.Fatalf("%s produced almost no output:\n%s", r.ID, out)
			}
		})
	}
}

func TestFig4Shapes(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Fig4Data(tinyConfig(&buf))
	if err != nil {
		t.Fatal(err)
	}
	// All three datasets and every applicable query must appear:
	// 11 (Yago) + 7 (LDBC) + 11 (SO) = 29 rows.
	if len(rows) != 29 {
		t.Fatalf("Fig4 produced %d rows, want 29", len(rows))
	}
	byDS := map[string][]Fig4Row{}
	for _, r := range rows {
		byDS[r.Dataset] = append(byDS[r.Dataset], r)
		if r.Result.Measured == 0 {
			t.Errorf("%s/%s: no measured tuples", r.Dataset, r.Query)
		}
		if r.Result.Throughput <= 0 {
			t.Errorf("%s/%s: nonpositive throughput", r.Dataset, r.Query)
		}
	}
	// Q11 (the only non-recursive query) must be fastest or near-
	// fastest on SO: check it beats the multi-star Q3 (paper §5.2).
	so := byDS["SO"]
	var q3, q11 float64
	for _, r := range so {
		switch r.Query {
		case "Q3":
			q3 = r.Result.Throughput
		case "Q11":
			q11 = r.Result.Throughput
		}
	}
	if q11 <= q3 {
		t.Errorf("SO: Q11 throughput (%.0f) should exceed Q3 (%.0f)", q11, q3)
	}
}

func TestFig5Shapes(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Fig5Data(tinyConfig(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("Fig5 rows = %d, want 11", len(rows))
	}
	// Q4/Q9 (closure over the full alphabet) must build a larger index
	// than the non-recursive Q11.
	sizes := map[string]int{}
	for _, r := range rows {
		sizes[r.Query] = r.Nodes
	}
	if sizes["Q4"] <= sizes["Q11"] {
		t.Errorf("Q4 nodes (%d) should exceed Q11 nodes (%d)", sizes["Q4"], sizes["Q11"])
	}
}

func TestFig6Shapes(t *testing.T) {
	var buf bytes.Buffer
	bySize, bySlide, err := Fig6Data(tinyConfig(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(bySize) == 0 || len(bySlide) == 0 {
		t.Fatal("empty sweeps")
	}
	// Window sizes must strictly increase across the sweep for a fixed
	// query.
	var last int64 = -1
	for _, r := range bySize {
		if r.Query != bySize[0].Query {
			continue
		}
		if r.WindowEdges <= last {
			t.Errorf("window sizes not increasing: %d after %d", r.WindowEdges, last)
		}
		last = r.WindowEdges
	}
}

func TestFig7Shapes(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Fig7Data(tinyConfig(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 {
		t.Fatalf("Fig7 rows = %d, want 100", len(rows))
	}
	for _, r := range rows {
		if r.States <= 0 {
			t.Errorf("%s: nonpositive k", r.Query)
		}
		// The paper's observation: no exponential blowup. Allow a
		// generous linear envelope.
		if r.States > 4*r.Size+4 {
			t.Errorf("%s: k=%d explodes past 4·|Q|+4 (|Q|=%d)", r.Query, r.States, r.Size)
		}
	}
}

func TestTable4Shapes(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Table4Data(tinyConfig(&buf))
	if err != nil {
		t.Fatal(err)
	}
	feasibleByDS := map[string]int{}
	// Q1 (a*) and Q4 ((a|b|c)*) have the suffix-containment property,
	// so they are conflict-free — hence feasible — on every graph; Q11
	// (fixed-length concatenation) is feasible because its cascades
	// are depth-bounded. Note Q9 ((a|b|c)+) is NOT in this set: ε is
	// in the suffix language of its final state but not of its start
	// state, so cycles back to a tree root conflict — matching the
	// paper's Table 4, which omits Q9 from the SO success list.
	restricted := map[string]bool{"Q1": true, "Q4": true, "Q11": true}
	for _, r := range rows {
		feasibleByDS[r.Dataset] += boolToInt(r.Feasible)
		if restricted[r.Query] && !r.Feasible {
			t.Errorf("%s/%s: restricted query reported infeasible", r.Dataset, r.Query)
		}
	}
	// The paper's qualitative claim (§5.5): sparse heterogeneous graphs
	// (Yago) are far friendlier to simple-path semantics than the dense
	// cyclic SO graph. Our synthetic Yago has heavier hubs than the real
	// one, so Q9 may conflict there too; we assert the ordering and a
	// near-complete Yago success set rather than the exact 11/11.
	if feasibleByDS["Yago"] < 10 {
		t.Errorf("Yago feasible queries = %d, want ≥ 10", feasibleByDS["Yago"])
	}
	if feasibleByDS["Yago"] < feasibleByDS["SO"] {
		t.Errorf("feasible(Yago)=%d < feasible(SO)=%d — ordering violated",
			feasibleByDS["Yago"], feasibleByDS["SO"])
	}
	if feasibleByDS["LDBC"] != 7 {
		t.Errorf("LDBC feasible queries = %d, want all 7", feasibleByDS["LDBC"])
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestFig11Shapes(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Fig11Data(tinyConfig(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("Fig11 rows = %d, want 11", len(rows))
	}
	faster := 0
	for _, r := range rows {
		if r.SpeedupTput > 1 {
			faster++
		}
	}
	// RAPQ must beat the rescan baseline on the overwhelming majority
	// of queries (the paper reports consistent wins on all 11).
	if faster < 9 {
		t.Errorf("RAPQ faster on only %d/11 queries", faster)
	}
}

func TestTable1Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"O(n·k²)", "O(n²·k)", "Arbitrary", "Simple"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("Table 1 output missing %q", want)
		}
	}
}
