package shard

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"streamrpq/internal/automaton"
	"streamrpq/internal/core"
	"streamrpq/internal/graph"
	"streamrpq/internal/stream"
	"streamrpq/internal/window"
)

// The system model checks the coordinator against independent
// references on generated operation sequences: registrations, runs of
// tuples, removals and checkpoints. Every configuration (shard count,
// batch size) must deliver exactly the records of one private engine per
// registration (check 1, model.private), the canonical run must agree
// with the batch oracle after every tuple (check 2, model.checkOracle),
// and every configuration must report the counters and checkpoints of
// the one-shard engine at the same batch cutting (check 3, model.check).

// modelPool is the registration pool: an equivalent pair only
// minimization unifies (a/b*, a|(a/b*)), queries whose start state is
// their only final state with their R+ twins (a*, a+ and a/a*; (a/b)* and
// (a/b)+), a query with a second final state (a*/b*) and one on a label
// the others skip (c*). Drawing with replacement gives exact duplicates.
var modelPool = []string{"a/b*", "a|(a/b*)", "a*", "a+", "a/a*", "(a/b)*", "(a/b)+", "a*/b*", "c*"}

// modelLabels are the stream's labels; no query reads d.
var modelLabels = []string{"a", "b", "c", "d"}

type opKind uint8

const (
	opRun        opKind = iota // ingest tuples
	opAdd                      // register expr
	opRemove                   // remove registration query
	opCheckpoint               // snapshot, then restore into a fresh engine at another shard count
)

type op struct {
	kind   opKind
	expr   string
	query  int
	tuples []stream.Tuple
}

type scenario struct {
	spec window.Spec
	ops  []op
}

// choices feeds the generator: a seeded source, or the fuzzer's bytes,
// which read as zeros once they run out.
type choices struct {
	rng *rand.Rand
	b   []byte
}

func (c *choices) intn(n int) int {
	if c.rng != nil {
		return c.rng.Intn(n)
	}
	if len(c.b) == 0 {
		return 0
	}
	v := int(c.b[0]) % n
	c.b = c.b[1:]
	return v
}

func (c *choices) more() bool { return c.rng != nil || len(c.b) > 0 }

// generate draws a scenario: a window, two to five registrations, then
// up to eight runs of tuples over six vertices, each run but the first
// preceded by a checkpoint or nothing, or, in two scenarios of three, by
// a mid-stream Add or a Remove too. A
// tuple ties the previous timestamp, advances it by one, by a slide or
// past the whole window; it inserts an edge, refreshes an earlier one,
// deletes a recent one (likely present), deletes any earlier one (maybe
// deleted or expired already) or only advances the clock (label −1).
func generate(c *choices) scenario {
	slide := int64(1 + c.intn(4))
	sc := scenario{spec: window.Spec{Size: slide * int64(2+c.intn(5)), Slide: slide}}
	var live []int
	regs := 0
	add := func() {
		sc.ops = append(sc.ops, op{kind: opAdd, expr: modelPool[c.intn(len(modelPool))]})
		live = append(live, regs)
		regs++
	}
	for range 2 + c.intn(4) {
		add()
	}
	churn := c.intn(3) > 0
	var ts int64
	var hist []stream.Tuple
	for r := 0; r < 8 && c.more(); r++ {
		if r > 0 {
			switch c.intn(5) {
			case 0:
				if churn {
					add()
				}
			case 1:
				if churn && len(live) > 0 {
					i := c.intn(len(live))
					sc.ops = append(sc.ops, op{kind: opRemove, query: live[i]})
					live = slices.Delete(live, i, i+1)
				}
			case 2:
				sc.ops = append(sc.ops, op{kind: opCheckpoint})
			}
		}
		run := make([]stream.Tuple, 1+c.intn(40))
		for i := range run {
			switch c.intn(8) {
			case 3, 4, 5:
				ts++
			case 6:
				ts += slide
			case 7:
				ts += sc.spec.Size + int64(c.intn(int(slide)))
			}
			tu := stream.Tuple{TS: ts}
			switch k := c.intn(10); {
			case k < 5 || len(hist) == 0:
				tu.Src, tu.Dst = stream.VertexID(c.intn(6)), stream.VertexID(c.intn(6))
				tu.Label = stream.LabelID(c.intn(len(modelLabels)))
				hist = append(hist, tu)
			case k < 6:
				old := hist[c.intn(len(hist))]
				tu.Src, tu.Dst, tu.Label = old.Src, old.Dst, old.Label
				hist = append(hist, tu)
			case k < 8:
				tu = hist[len(hist)-1-c.intn(min(4, len(hist)))]
				tu.TS, tu.Op = ts, stream.Delete
			case k < 9:
				tu = hist[c.intn(len(hist))]
				tu.TS, tu.Op = ts, stream.Delete
			default:
				tu.Label = -1
			}
			run[i] = tu
		}
		sc.ops = append(sc.ops, op{kind: opRun, tuples: run})
	}
	return sc
}

// model is a scenario with its registrations bound against modelLabels,
// by registration index: each query's own automaton (the private
// engines' and the oracle's), and the stream-global tuple index of its
// registration and of its removal (math.MaxInt while live).
type model struct {
	sc       scenario
	bounds   []*automaton.Bound
	from, to []int
	static   bool // every registration precedes the first tuple and none is removed
	groups   int  // distinct group automata over all registrations
}

func newModel(t testing.TB, sc scenario) *model {
	m := &model{sc: sc, static: true}
	keys := map[string]bool{}
	n := 0
	for _, o := range sc.ops {
		switch o.kind {
		case opAdd:
			b := bind(t, o.expr, modelLabels...)
			gb, _ := core.GroupBinding(b)
			keys[gb.Fingerprint()] = true
			m.bounds = append(m.bounds, b)
			m.from, m.to = append(m.from, n), append(m.to, math.MaxInt)
			m.static = m.static && n == 0
		case opRemove:
			m.to[o.query], m.static = n, false
		case opRun:
			n += len(o.tuples)
		}
	}
	m.groups = len(keys)
	return m
}

// private is check 1's reference: one standalone core.RAPQ per
// registration, bound to the query's own automaton and fed the whole
// stream tuple by tuple. It returns the records each registration owes
// from its registration tuple on and before its removal, each tuple's
// in canonical order, and the engines' summed delivery counters.
func (m *model) private() ([]Result, core.Stats) {
	var all, step []Result
	cur := 0
	engines := make([]*core.RAPQ, len(m.bounds))
	for q, b := range m.bounds {
		emit := func(inval bool) func(core.Match) {
			return func(mt core.Match) {
				if cur >= m.from[q] && cur < m.to[q] {
					step = append(step, Result{Tuple: cur, Query: q, Match: mt, Invalidated: inval})
				}
			}
		}
		sink := core.FuncSink{Match: emit(false), Invalidate: emit(true)}
		engines[q] = core.NewRAPQ(b, m.sc.spec, core.WithSink(sink))
	}
	for _, o := range m.sc.ops {
		for _, tu := range o.tuples {
			step = step[:0]
			for _, e := range engines {
				e.Process(tu)
			}
			slices.SortFunc(step, compareResults)
			all = append(all, step...)
			cur++
		}
	}
	var sum core.Stats
	for _, e := range engines {
		st := e.Stats()
		sum.Results += st.Results
		sum.Invalidations += st.Invalidations
	}
	return all, sum
}

// variant is one coordinator configuration; writers also passes the
// deprecated WithWriters(2).
type variant struct {
	shards, batch int
	writers       bool
}

// grid is every shard count at every batch size, the one-shard
// configuration first at each.
func grid(shards, batchSizes []int) []variant {
	var out []variant
	for _, b := range batchSizes {
		for _, s := range shards {
			if !slices.Contains(out, variant{s, b, false}) {
				out = append(out, variant{s, b, false})
			}
		}
	}
	return out
}

// trace is what one configuration delivered: every record with its
// stream-global tuple index, Stats after every batch and the state of
// every checkpoint, with the wall-clock ExpiryTime zeroed in both.
type trace struct {
	recs   []Result
	stats  []core.Stats
	states []*core.MultiState
}

// coverage counts, by case, what the canonical runs saw.
type coverage map[string]int

// coverageCases are the cases the coordinator treats apart: over the
// seed set the model must see each, or it checks nothing there.
var coverageCases = []string{
	"invalidation",
	"(x, x) record of a group with a noSelf subscriber",
	"mid-stream Add into an existing group",
	"mid-stream Add that forms a group",
	"Remove that drops a group",
	"restore at another shard count",
	"labelled tuple no group reads",
	"static query set",
}

// run drives one configuration through the scenario. A checkpoint
// snapshots the engine, closes it, registers every registration in
// index order on a fresh engine at the next shard count (Add, or
// AddRemoved for a removed one) and restores the snapshot there. After
// every batch each group's invariants must hold and the graph must have
// settled: no dead version, epoch 0.
func (m *model) run(t testing.TB, cf variant, cov coverage) trace {
	t.Helper()
	shards := cf.shards
	build := func() *Engine {
		opts := []Option{WithShards(shards)}
		if cf.writers {
			opts = append(opts, WithWriters(2))
		}
		s, err := New(m.sc.spec, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := build()
	defer func() { s.Close() }()
	var tr trace
	var removed []bool
	n := 0
	for _, o := range m.sc.ops {
		groups := len(s.groups)
		switch o.kind {
		case opAdd:
			if _, err := s.Add(m.bounds[len(removed)], nil); err != nil {
				t.Fatal(err)
			}
			removed = append(removed, false)
			if n > 0 && len(s.groups) > groups {
				cov["mid-stream Add that forms a group"]++
			} else if n > 0 {
				cov["mid-stream Add into an existing group"]++
			}
		case opRemove:
			if err := s.Remove(o.query); err != nil {
				t.Fatal(err)
			}
			removed[o.query] = true
			if len(s.groups) < groups {
				cov["Remove that drops a group"]++
			}
		case opCheckpoint:
			st := s.SnapshotState()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			shards = shards%3 + 1
			s = build()
			for q, gone := range removed {
				if gone {
					s.AddRemoved()
				} else if _, err := s.Add(m.bounds[q], nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.RestoreState(st); err != nil {
				t.Fatalf("%+v: restore at %d shards: %v", cf, shards, err)
			}
			for _, ms := range st.Members {
				ms.Stats.ExpiryTime = 0
			}
			tr.states = append(tr.states, st)
			cov["restore at another shard count"]++
		case opRun:
			for _, b := range batches(o.tuples, cf.batch) {
				for _, tu := range b {
					if tu.Label >= 0 && !s.relevantLabel(tu.Label) {
						cov["labelled tuple no group reads"]++
					}
				}
				rs, err := s.ProcessBatch(b)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range rs {
					r.Tuple += n
					tr.recs = append(tr.recs, r)
					if r.Invalidated {
						cov["invalidation"]++
					}
					if r.Match.From == r.Match.To && slices.ContainsFunc(s.members[r.Query].group.subs, func(sb sub) bool { return sb.noSelf }) {
						cov["(x, x) record of a group with a noSelf subscriber"]++
					}
				}
				n += len(b)
				for _, g := range s.groups {
					if err := g.engine.(*core.RAPQ).CheckInvariants(); err != nil {
						t.Fatalf("%+v: after tuple %d: %v", cf, n-1, err)
					}
				}
				if d, e := s.g.DeadVersions(), s.g.Epoch(); d != 0 || e != 0 {
					t.Fatalf("%+v: after tuple %d: %d dead versions at epoch %d", cf, n-1, d, e)
				}
				st := s.Stats()
				st.ExpiryTime = 0
				tr.stats = append(tr.stats, st)
			}
		}
	}
	return tr
}

// checkOracle is check 2: it replays the canonical run's records against
// the batch oracle (core.BatchArbitrary over an independent window
// graph, written and expired tuple by tuple). After every tuple, for
// every live query, each match must be an answer, no invalidation may be
// one, and every answer must have been matched and not invalidated since.
// A query registered mid-stream starts from the answers at its
// registration.
func (m *model) checkOracle(t testing.TB, recs []Result) {
	t.Helper()
	og := graph.New()
	now := int64(math.MinInt64)
	answers := func(q int) map[core.Pair]struct{} {
		return core.BatchArbitrary(og, m.bounds[q], m.sc.spec.ValidFrom(now))
	}
	held := make([]map[core.Pair]bool, len(m.bounds)) // nil unless live
	want := make([]map[core.Pair]struct{}, len(m.bounds))
	n, q := 0, 0
	for _, o := range m.sc.ops {
		switch o.kind {
		case opAdd:
			held[q] = map[core.Pair]bool{}
			for p := range answers(q) {
				held[q][p] = true
			}
			q++
		case opRemove:
			held[o.query] = nil
		}
		for _, tu := range o.tuples {
			now = tu.TS
			og.Expire(m.sc.spec.ValidFrom(now), nil)
			if tu.Label >= 0 && tu.Op == stream.Delete {
				og.Delete(tu.Key())
			} else if tu.Label >= 0 {
				og.Insert(tu.Src, tu.Dst, tu.Label, tu.TS)
			}
			for r, h := range held {
				if want[r] = nil; h != nil {
					want[r] = answers(r)
				}
			}
			for ; len(recs) > 0 && recs[0].Tuple == n; recs = recs[1:] {
				r := recs[0]
				p := core.Pair{From: r.Match.From, To: r.Match.To}
				if held[r.Query] == nil {
					t.Fatalf("tuple %d: record %+v for a query not registered", n, r)
				}
				if _, ok := want[r.Query][p]; ok == r.Invalidated {
					t.Fatalf("tuple %d %+v: %+v, but the oracle's answers hold the pair: %v", n, tu, r, ok)
				}
				held[r.Query][p] = !r.Invalidated
			}
			for r, h := range held {
				for p := range want[r] {
					if !h[p] {
						t.Fatalf("tuple %d %+v: query %d: oracle answer %v was never matched, or invalidated since", n, tu, r, p)
					}
				}
			}
			n++
		}
	}
	if len(recs) > 0 {
		t.Fatalf("records past the stream: %+v", recs[0])
	}
}

// check runs the scenario in every configuration — the first must be the
// canonical one: one shard, batch size 1 — and applies the model's three
// checks: every configuration delivers the private engines' records
// (check 1) and, for a static query set, their summed delivery counters;
// the canonical run agrees with the batch oracle (check 2); and every
// configuration's Stats after every batch and checkpoint states equal the
// one-shard engine's at the same batch size (check 3). The canonical
// run's coverage is added to cov.
func (m *model) check(t testing.TB, configs []variant, cov coverage) {
	t.Helper()
	want, sum := m.private()
	ref := map[int]trace{}
	for i, cf := range configs {
		seen := coverage{}
		tr := m.run(t, cf, seen)
		if i == 0 {
			m.checkOracle(t, tr.recs)
			if m.static {
				seen["static query set"]++
			}
			for k, v := range seen {
				cov[k] += v
			}
		}
		if !slices.Equal(want, tr.recs) {
			d := 0
			for d < min(len(want), len(tr.recs)) && want[d] == tr.recs[d] {
				d++
			}
			t.Fatalf("%+v: %d records, private engines %d; first difference at %d:\nprivate %v\ngot     %v",
				cf, len(tr.recs), len(want), d, want[d:min(d+1, len(want))], tr.recs[d:min(d+1, len(tr.recs))])
		}
		if last := len(tr.stats) - 1; m.static && last >= 0 &&
			(tr.stats[last].Results != sum.Results || tr.stats[last].Invalidations != sum.Invalidations) {
			t.Fatalf("%+v: results %d invalidations %d, private engines %d/%d",
				cf, tr.stats[last].Results, tr.stats[last].Invalidations, sum.Results, sum.Invalidations)
		}
		r, ok := ref[cf.batch]
		if !ok {
			ref[cf.batch] = tr
			continue
		}
		for b := range r.stats {
			if r.stats[b] != tr.stats[b] {
				t.Fatalf("%+v: after batch %d counters differ:\none shard %+v\ngot       %+v", cf, b, r.stats[b], tr.stats[b])
			}
		}
		if !reflect.DeepEqual(r.states, tr.states) {
			t.Fatalf("%+v: checkpoint states differ from the one-shard engine's", cf)
		}
	}
}

// TestSystemModel runs the model over a fixed seed set, each scenario at
// shard counts 1, 2, 3 and one more than its group count, at batch sizes
// 1, 7 and 64, and once more at two shards and batch size 7 with the
// deprecated WithWriters(2). It fails as vacuous unless the canonical
// runs saw every case in coverageCases.
func TestSystemModel(t *testing.T) {
	cov := coverage{}
	for seed := int64(1); seed <= 40; seed++ {
		m := newModel(t, generate(&choices{rng: rand.New(rand.NewSource(seed))}))
		m.check(t, append(grid([]int{1, 2, 3, m.groups + 1}, []int{1, 7, 64}), variant{2, 7, true}), cov)
	}
	t.Log(cov)
	for _, c := range coverageCases {
		if cov[c] == 0 {
			t.Errorf("no %s over the seed set: the model is vacuous there", c)
		}
	}
}

// FuzzSystem runs the model on scenarios decoded from the fuzzer's
// bytes: the first two pick a shard count (1–3) and a batch size (1–64),
// compared with the one-shard engine and at batch size 1; the rest drive
// the generator.
func FuzzSystem(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 6, 3, 2, 4, 3, 1, 20, 3, 0, 1, 2, 0, 4, 5, 1, 0, 0, 0, 6, 2, 3, 9, 7})
	f.Fuzz(func(t *testing.T, b []byte) {
		c := &choices{b: b}
		shards, batch := 1+c.intn(3), 1+c.intn(64)
		m := newModel(t, generate(c))
		m.check(t, grid([]int{1, shards}, []int{1, batch}), coverage{})
	})
}
