package shard

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"streamrpq/internal/core"
	"streamrpq/internal/graph"
	"streamrpq/internal/stream"
	"streamrpq/internal/window"
)

// refreshTuples generates an append-only stream that refreshes edges
// and expires often: a small vertex set forces frequent re-insertions,
// the timestamp step is often 0 (long tie-groups), and slide > 1 with a
// small window forces regular expiry passes.
func refreshTuples(rng *rand.Rand, n int) []stream.Tuple {
	var out []stream.Tuple
	ts := int64(0)
	for i := 0; i < n; i++ {
		ts += rng.Int63n(2) // many ties
		out = append(out, stream.Tuple{
			TS:    ts,
			Src:   stream.VertexID(rng.Intn(5)),
			Dst:   stream.VertexID(rng.Intn(5)),
			Label: stream.LabelID(rng.Intn(2)),
		})
	}
	return out
}

// assertQuiesced: between batches every superseded version is gone and
// the graph's epoch is back at 0, or checkpoints (and memory) would
// accumulate batch residue.
func assertQuiesced(t *testing.T, s *Engine, when string) {
	t.Helper()
	if n, e := s.Graph().DeadVersions(), s.Graph().Epoch(); n != 0 || e != 0 {
		t.Fatalf("%s: %d dead versions retained at epoch %d", when, n, e)
	}
}

// TestPipelinedBatchAllocs pins what a steady-state batch of 32 tuples
// at two shards allocates. A lasting edge 0 -a-> 1 keeps one
// tree per group alive; every batch then inserts 16 edges 1 -b-> k and
// deletes them again, so each one writes and retires graph versions
// inside its batch bracket, dispatches to both shards, emits matches and
// invalidations on both, and merges them.
func TestPipelinedBatchAllocs(t *testing.T) {
	s, err := New(window.Spec{Size: 1 << 40, Slide: 1 << 40}, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, expr := range []string{"a/b", "a/b*", "a/(b|c)", "a/b+"} {
		if _, err := s.Add(bind(t, expr, "a", "b", "c"), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.ProcessBatch([]stream.Tuple{{TS: 1, Src: 0, Dst: 1, Label: 0}}); err != nil {
		t.Fatal(err)
	}
	const n = 32
	tuples := make([]stream.Tuple, n)
	for i := range n / 2 {
		ins := stream.Tuple{TS: 1, Src: 1, Dst: stream.VertexID(2 + i), Label: 1}
		del := ins
		del.Op = stream.Delete
		tuples[i], tuples[n/2+i] = ins, del
	}
	var inval bool
	for range 3 {
		rs, err := s.ProcessBatch(tuples)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			inval = inval || r.Invalidated
		}
	}
	if !inval {
		t.Fatal("warm-up emitted no invalidations; test is vacuous")
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, err := s.ProcessBatch(tuples); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Errorf("a two-shard %d-tuple batch allocates %.1f times, want 0", n, avg)
	}
}

// TestPipelinedSnapshotEpochFree: a snapshot that splits an equivalent
// pair over two states (the layout written with sharing switched off),
// taken from a four-shard engine, restores into a three-shard engine
// collapsed into the pair's one group, and the restored engine continues
// the one-shard engine's stream byte-identically.
func TestPipelinedSnapshotEpochFree(t *testing.T) {
	exprs := []string{"(a/b)+", "b/a*", "(a/b)+"}
	spec := window.Spec{Size: 18, Slide: 3}
	tuples := refreshTuples(rand.New(rand.NewSource(99)), 600)
	half := len(tuples) / 2

	mkEngine := func(opts ...Option) *Engine {
		s, err := New(spec, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, expr := range exprs {
			if _, err := s.Add(bind(t, expr, "a", "b"), nil); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	run := func(s *Engine, tuples []stream.Tuple) []Result {
		var all []Result
		for _, b := range batches(tuples, 31) {
			rs, err := s.ProcessBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, rs...)
		}
		return all
	}

	t.Run("split-into-shared", func(t *testing.T) {
		deep, flat := mkEngine(WithShards(4)), mkEngine(inlineOpts...)
		run(deep, tuples[:half])
		run(flat, tuples[:half])
		st := deep.SnapshotState()
		deep.Close()
		if !reflect.DeepEqual(st.MemberGroup, []int{0, 1, 0}) {
			t.Fatalf("snapshot mapping %v, want the pair shared", st.MemberGroup)
		}
		dup := *st.Members[0]
		st.Members = append(st.Members, &dup)
		st.MemberGroup = []int{0, 1, 2}
		wantGroups := flat.Stats().Groups
		wantTail := run(flat, tuples[half:])
		flat.Close()

		restored := mkEngine(WithShards(3))
		defer restored.Close()
		if err := restored.RestoreState(st); err != nil {
			t.Fatal(err)
		}
		if got := restored.Stats().Groups; got != wantGroups {
			t.Fatalf("restored layout has %d groups, registration %d", got, wantGroups)
		}
		if gotTail := run(restored, tuples[half:]); !reflect.DeepEqual(wantTail, gotTail) {
			t.Fatalf("restored engine's tail diverged (%d vs %d results)", len(gotTail), len(wantTail))
		}
		if len(wantTail) == 0 {
			t.Fatal("no tail results; test is vacuous")
		}
	})
}

// TestEpochGCFoldsToUnversionedGraph is the epoch-GC compaction
// property at the engine level: after a churn stream (expiry,
// deletions, re-insertions) through a four-shard engine, the
// serialized graph state — core.SnapshotEdges, exactly what
// SnapshotState records on disk — must be byte-identical to that of
// the never-versioned graph of the reference core.Multi coordinator
// fed the same stream, and the versioned graph must hold zero dead
// versions once the last reader epoch has retired.
func TestEpochGCFoldsToUnversionedGraph(t *testing.T) {
	exprs := []string{"(a/b)+", "a*"}
	spec := window.Spec{Size: 22, Slide: 4}
	for trial := 0; trial < 5; trial++ {
		tuples := randomTuples(rand.New(rand.NewSource(int64(500+trial))), 800, 6, 2, 1, 0.12)

		multi, err := core.NewMulti(spec)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(spec, WithShards(4))
		if err != nil {
			t.Fatal(err)
		}
		for _, expr := range exprs {
			if _, err := multi.Add(bind(t, expr, "a", "b")); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Add(bind(t, expr, "a", "b"), nil); err != nil {
				t.Fatal(err)
			}
		}
		for _, tu := range tuples {
			multi.Process(tu)
		}
		for _, b := range batches(tuples, 41) {
			if _, err := s.ProcessBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		if n := s.Graph().DeadVersions(); n != 0 {
			t.Fatalf("trial %d: %d dead versions after the last reader retired", trial, n)
		}
		got, want := core.SnapshotEdges(s.Graph()), core.SnapshotEdges(multi.Graph())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: folded graph differs from never-versioned oracle (%d vs %d edges)",
				trial, len(got), len(want))
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// faultyMember panics on the Nth ApplyInsert; everything else
// delegates to a real RAPQ member. It drives the sticky-error path.
type faultyMember struct {
	*core.RAPQ
	calls, failAt int
}

func (f *faultyMember) ApplyInsert(t stream.Tuple) {
	f.calls++
	if f.calls == f.failAt {
		panic("injected member fault")
	}
	f.RAPQ.ApplyInsert(t)
}

// TestStickyWorkerError: a panic in a member engine — on a shard
// goroutine or on the caller's, as shard 0 — must not crash the process
// or wedge the engine; it surfaces as the sticky engine error from
// ProcessBatch, poisons subsequent calls, and is reported again by
// Close and Err.
func TestStickyWorkerError(t *testing.T) {
	t.Run("pipelined", func(t *testing.T) { stickyWorkerError(t, WithShards(2)) })
	t.Run("inline", func(t *testing.T) { stickyWorkerError(t, inlineOpts...) })
}

func stickyWorkerError(t *testing.T, opts ...Option) {
	s, err := New(window.Spec{Size: 20, Slide: 2}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add(bind(t, "(a/b)+", "a", "b"), nil); err != nil {
		t.Fatal(err)
	}
	// Wrap a second member with the fault injector, on the other shard.
	fa := bind(t, "a+", "a", "b")
	if err := s.checkLabelSpace(fa); err != nil {
		t.Fatal(err)
	}
	mb := s.newMember(fa, nil)
	s.activate(s.newGroup(&faultyMember{RAPQ: core.NewRAPQ(fa, s.spec), failAt: 30}, mb))

	tuples := refreshTuples(rand.New(rand.NewSource(3)), 400)
	var firstErr error
	for _, b := range batches(tuples, 20) {
		if _, err := s.ProcessBatch(b); err != nil {
			firstErr = err
			break
		}
	}
	if firstErr == nil || !strings.Contains(firstErr.Error(), "injected member fault") {
		t.Fatalf("fault did not surface from ProcessBatch: %v", firstErr)
	}
	// The failed batch still closed its bracket.
	if n := s.Graph().DeadVersions(); n != 0 {
		t.Fatalf("%d dead versions after the failed batch", n)
	}
	if _, err := s.ProcessBatch(tuples[:1]); err == nil {
		t.Fatal("poisoned engine accepted another batch")
	}
	if s.Err() == nil {
		t.Fatal("Err() lost the sticky error")
	}
	if err := s.Close(); err == nil || !strings.Contains(err.Error(), "injected member fault") {
		t.Fatalf("Close() = %v, want the sticky error", err)
	}
}

// TestPipelineOptionValidation: the deprecated WithPipelineDepth still
// rejects n <= 0 and otherwise changes nothing: one shard stays on the
// caller's goroutine.
func TestPipelineOptionValidation(t *testing.T) {
	if _, err := New(window.Spec{Size: 10, Slide: 1}, WithPipelineDepth(0)); err == nil {
		t.Fatal("zero pipeline depth accepted")
	}
	if _, err := New(window.Spec{Size: 10, Slide: 1}, WithPipelineDepth(-3)); err == nil {
		t.Fatal("negative pipeline depth accepted")
	}
	assertOneShardOnCaller(t, WithPipelineDepth(4))
}

// TestWritersOptionValidation: the deprecated WithWriters still rejects
// n <= 0 and otherwise changes nothing.
func TestWritersOptionValidation(t *testing.T) {
	if _, err := New(window.Spec{Size: 10, Slide: 1}, WithWriters(0)); err == nil {
		t.Fatal("zero writer count accepted")
	}
	if _, err := New(window.Spec{Size: 10, Slide: 1}, WithWriters(-2)); err == nil {
		t.Fatal("negative writer count accepted")
	}
	assertOneShardOnCaller(t, WithWriters(4))
}

// assertOneShardOnCaller: a one-shard engine built with opt has no
// channel behind its shard.
func assertOneShardOnCaller(t *testing.T, opt Option) {
	t.Helper()
	s, err := New(window.Spec{Size: 10, Slide: 1}, append(inlineOpts, opt)...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if w := s.workers[0]; s.NumShards() != 1 || w.in != nil || w.out != nil {
		t.Fatal("a deprecated option moved the one shard off the caller's goroutine")
	}
}

var _ core.MemberEngine = (*faultyMember)(nil)

// memberCall is one call a member engine received: ApplyInsert ('i') or
// ApplyDelete ('d') of a tuple, or ApplyExpiry ('x') to a deadline, and
// the epoch it read the graph at.
type memberCall struct {
	kind     byte
	tuple    stream.Tuple
	deadline int64
	epoch    graph.Epoch
}

// recordingMember records every Apply call; everything delegates to a
// real RAPQ member.
type recordingMember struct {
	*core.RAPQ
	epoch graph.Epoch
	calls []memberCall
}

func (r *recordingMember) SetReadEpoch(e graph.Epoch) {
	r.epoch = e
	r.RAPQ.SetReadEpoch(e)
}

func (r *recordingMember) ApplyInsert(t stream.Tuple) {
	r.calls = append(r.calls, memberCall{kind: 'i', tuple: t, epoch: r.epoch})
	r.RAPQ.ApplyInsert(t)
}

func (r *recordingMember) ApplyDelete(t stream.Tuple) {
	r.calls = append(r.calls, memberCall{kind: 'd', tuple: t, epoch: r.epoch})
	r.RAPQ.ApplyDelete(t)
}

func (r *recordingMember) ApplyExpiry(deadline int64) {
	r.calls = append(r.calls, memberCall{kind: 'x', deadline: deadline, epoch: r.epoch})
	r.RAPQ.ApplyExpiry(deadline)
}

var _ core.MemberEngine = (*recordingMember)(nil)

// TestMemberCallContract pins what a shard owes each member engine,
// however it orders the work of a batch among its groups: on a churn
// stream (slide boundaries, deletions of present and of already expired
// or deleted edges, a label no query reads) at shards 1/2/3 and batch
// sizes 1/17/64, every group receives the call sequence — kind, tuple or
// deadline — it receives at batch size 1, where each batch is one step.
// Every call reads the epoch of its step: an insert or delete its step's
// own, an expiry pass the one below it, the expired graph before the
// step's mutation (a window pass that reads no graph cannot show that
// slip in its results).
func TestMemberCallContract(t *testing.T) {
	exprs := []string{"(a/b)+", "a/b*", "a|(a/b*)", "(a|b)+", "c/a*", "b+"}
	spec := window.Spec{Size: 25, Slide: 5}
	tuples := randomTuples(rand.New(rand.NewSource(61)), 500, 8, 4, 1, 0.2)
	run := func(shards, batch int) [][]memberCall {
		s, err := New(spec, WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		recs := make([]*recordingMember, len(exprs))
		for i, expr := range exprs {
			a := bind(t, expr, "a", "b", "c", "d")
			recs[i] = &recordingMember{RAPQ: core.NewRAPQ(a, s.spec)}
			s.activate(s.newGroup(recs[i], s.newMember(a, nil)))
		}
		from := make([]int, len(recs))
		for _, b := range batches(tuples, batch) {
			if _, err := s.ProcessBatch(b); err != nil {
				t.Fatal(err)
			}
			byEpoch := map[graph.Epoch]step{}
			for _, st := range s.steps {
				byEpoch[st.epoch] = st
			}
			for i, r := range recs {
				for _, c := range r.calls[from[i]:] {
					st, ok := byEpoch[c.epoch]
					if c.kind == 'x' {
						st, ok = byEpoch[c.epoch+1]
						ok = ok && st.expire && st.deadline == c.deadline
					} else {
						ok = ok && !st.skip && st.tuple == c.tuple && st.del == (c.kind == 'd')
					}
					if !ok {
						t.Fatalf("shards=%d batch=%d: %q got %c %+v at epoch %d, which is not its step's",
							shards, batch, exprs[i], c.kind, c, c.epoch)
					}
				}
				from[i] = len(r.calls)
			}
		}
		if st := s.Stats(); st.TuplesDropped == 0 || st.ExpiryRuns == 0 {
			t.Fatalf("irrelevant-label or expiry coverage is vacuous: %+v", st)
		}
		seqs := make([][]memberCall, len(recs))
		for i, r := range recs {
			for _, c := range r.calls {
				c.epoch = 0
				seqs[i] = append(seqs[i], c)
			}
		}
		return seqs
	}
	want := run(1, 1)
	deleted := map[stream.Tuple]bool{}
	for _, seq := range want {
		for _, c := range seq {
			deleted[c.tuple] = deleted[c.tuple] || c.kind == 'd'
		}
	}
	present, absent := 0, 0
	for _, tu := range tuples {
		if tu.Op == stream.Delete && tu.Label < 3 {
			if deleted[tu] {
				present++
			} else {
				absent++
			}
		}
	}
	if present == 0 || absent == 0 {
		t.Fatalf("deletion coverage is vacuous: %d of present edges, %d of absent ones", present, absent)
	}
	for _, shards := range []int{1, 2, 3} {
		for _, batch := range []int{1, 17, 64} {
			got := run(shards, batch)
			for i := range exprs {
				if !slices.Equal(want[i], got[i]) {
					t.Fatalf("shards=%d batch=%d: %q received %d calls, not the %d of batch size 1 in order",
						shards, batch, exprs[i], len(got[i]), len(want[i]))
				}
			}
		}
	}
}

// TestAddInPlace: every registration goes through one Add and leaves
// nothing behind. On a two-shard engine the static queries are added
// before the first batch (a bootstrap from the empty window); at a
// mid-stream batch boundary Add returns with the new group built and
// attached and no graph batch open, a second equivalent registration in
// the same gap subscribes to that group, and the very next batch
// dispatches to it. The engine's snapshot is then restored into a fresh
// engine, and a fifth query is added right after RestoreState, before
// that engine's first batch. Every member emits exactly what it emits,
// and every batch dispatches exactly as much as, in an engine that had
// the same queries from stream start.
func TestAddInPlace(t *testing.T) {
	spec := window.Spec{Size: 25, Slide: 5}
	static := []string{"(a/b)+", "a/b*"}
	dynamic := []string{"c/(a|b)*", "c/(b|a)*"} // equivalent: one group
	const late = "b/c*"
	bs := batches(randomTuples(rand.New(rand.NewSource(77)), 600, 7, 3, 1, 0.15), 20)
	cut, restoreAt := len(bs)/3, 2*len(bs)/3

	newEngine := func(exprs ...string) *Engine {
		s, err := New(spec, WithShards(2))
		if err != nil {
			t.Fatal(err)
		}
		for _, expr := range exprs {
			if _, err := s.Add(bind(t, expr, "a", "b", "c"), nil); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	// feed runs batches [from, to) and returns, per batch, its results
	// and the dispatches it counted.
	feed := func(s *Engine, from, to int) (rs [][]Result, dispatches []int64) {
		for _, b := range bs[from:to] {
			before := s.Stats().Dispatches
			out, err := s.ProcessBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			rs = append(rs, append([]Result(nil), out...))
			dispatches = append(dispatches, s.Stats().Dispatches-before)
		}
		return rs, dispatches
	}
	// compare checks got against the from-start oracle's batches [from, to).
	compare := func(what string, gotRS, wantRS [][]Result, gotD, wantD []int64, from, to int) {
		t.Helper()
		if !reflect.DeepEqual(gotD, wantD[from:to]) {
			t.Fatalf("%s: dispatches per batch differ from the from-start engine:\n got %v\nwant %v",
				what, gotD, wantD[from:to])
		}
		if !reflect.DeepEqual(gotRS, wantRS[from:to]) {
			t.Fatalf("%s: result stream differs from the from-start engine", what)
		}
	}
	four := append(append([]string(nil), static...), dynamic...)
	oracle4 := newEngine(four...)
	defer oracle4.Close()
	want4, wantD4 := feed(oracle4, 0, len(bs))
	oracle5 := newEngine(append(four, late)...)
	defer oracle5.Close()
	want5, wantD5 := feed(oracle5, 0, len(bs))

	s := newEngine(static...)
	defer s.Close()
	feed(s, 0, cut)
	groups := s.Stats().Groups
	for i, expr := range dynamic {
		if _, err := s.Add(bind(t, expr, "a", "b", "c"), nil); err != nil {
			t.Fatal(err)
		}
		if idx := len(s.members) - 1; idx != len(static)+i {
			t.Fatalf("registration index = %d, want %d", idx, len(static)+i)
		}
		if st := s.Stats(); st.Groups != groups+1 {
			t.Fatalf("after Add %d: %d groups, want %d (one new group, active on return)", i, st.Groups, groups+1)
		}
		assertQuiesced(t, s, "after a mid-stream Add")
	}
	gotRS, gotD := feed(s, cut, restoreAt)
	assertQuiesced(t, s, "after the batches following registration")
	compare("after a mid-stream Add", gotRS, want4, gotD, wantD4, cut, restoreAt)

	r := newEngine(four...)
	defer r.Close()
	if err := r.RestoreState(s.SnapshotState()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Add(bind(t, late, "a", "b", "c"), nil); err != nil {
		t.Fatal(err)
	}
	assertQuiesced(t, r, "after an Add right after RestoreState")
	gotRS, gotD = feed(r, restoreAt, len(bs))
	compare("after an Add right after RestoreState", gotRS, want5, gotD, wantD5, restoreAt, len(bs))

	emitted := map[int]bool{}
	for _, rs := range append(want4[cut:restoreAt], gotRS...) {
		for _, res := range rs {
			emitted[res.Query] = true
		}
	}
	for q := len(static); q <= len(four); q++ {
		if !emitted[q] {
			t.Fatalf("registered query %d emitted nothing; test is vacuous", q)
		}
	}
}

// TestAddAfterNewestRelevantGone: a query registered after its group's
// newest relevant edge left the window bootstraps to a stream clock
// below a from-start engine's, and nothing aligns it. Two ways to get
// there: the newest relevant mutation before registration deletes the
// newest relevant edge, or that edge expires while only irrelevant
// labels arrive. In both the window's newest relevant edge is older
// than the from-start member's clock (the case is reached), and from the
// next batch on the engine's results equal those of an engine that had
// the query from stream start, with the member's invariants holding
// after every batch. In the first case the batch after registration
// opens with the deletion of a window edge that is valid under the
// registered member's clock but not under the from-start one's, so a
// deletion that read the member's clock before raising it to the
// tuple's timestamp would not match the from-start engine.
func TestAddAfterNewestRelevantGone(t *testing.T) {
	spec := window.Spec{Size: 25, Slide: 5}
	const static, late = "c+", "a/b*" // labels a=0, b=1, c=2
	ins := func(ts int64, src, dst stream.VertexID, l stream.LabelID) stream.Tuple {
		return stream.Tuple{TS: ts, Src: src, Dst: dst, Label: l}
	}
	del := func(tu stream.Tuple, ts int64) stream.Tuple {
		tu.TS, tu.Op = ts, stream.Delete
		return tu
	}
	newest := ins(31, 7, 8, 0)
	expiring := []stream.Tuple{ins(1, 1, 2, 0), ins(2, 2, 3, 1), ins(3, 4, 5, 0)}
	for ts := int64(5); ts <= 40; ts += 5 {
		expiring = append(expiring, ins(ts, 9, stream.VertexID(ts), 2))
	}
	// Each case: the stream before registration, and the first tuples
	// after it.
	cases := map[string]struct{ prefix, next []stream.Tuple }{
		"deleted": {
			[]stream.Tuple{ins(7, 1, 2, 0), ins(8, 2, 3, 1), ins(10, 5, 6, 2), newest, del(newest, 32)},
			[]stream.Tuple{del(ins(8, 2, 3, 1), 33)},
		},
		"expired": {expiring, nil},
	}
	for name, c := range cases {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				suffix := slices.Clone(c.next)
				base := c.prefix[len(c.prefix)-1].TS
				if len(suffix) > 0 {
					base = suffix[len(suffix)-1].TS
				}
				for _, tu := range randomTuples(rand.New(rand.NewSource(43)), 400, 6, 3, 1, 0.15) {
					tu.TS += base + 1
					suffix = append(suffix, tu)
				}
				bs := batches(suffix, 16)
				newEngine := func(exprs ...string) (*Engine, *core.RAPQ) {
					s, err := New(spec, WithShards(shards))
					if err != nil {
						t.Fatal(err)
					}
					var last *core.RAPQ
					for _, expr := range exprs {
						if last, err = s.Add(bind(t, expr, "a", "b", "c"), nil); err != nil {
							t.Fatal(err)
						}
					}
					return s, last
				}
				oracle, fromStart := newEngine(static, late)
				defer oracle.Close()
				s, _ := newEngine(static)
				defer s.Close()
				for _, eng := range []*Engine{oracle, s} {
					if _, err := eng.ProcessBatch(c.prefix); err != nil {
						t.Fatal(err)
					}
				}
				member, err := s.Add(bind(t, late, "a", "b", "c"), nil)
				if err != nil {
					t.Fatal(err)
				}
				// The case: the window's newest relevant edge is older than
				// the from-start member's clock, which a bootstrap from the
				// window cannot reproduce.
				survivor := int64(math.MinInt64)
				for _, ed := range core.SnapshotEdges(s.Graph()) {
					if member.RelevantLabel(ed.Label) {
						survivor = max(survivor, ed.TS)
					}
				}
				if survivor >= fromStart.Now() {
					t.Fatalf("newest relevant window edge at %d, from-start clock %d: the case is not reached", survivor, fromStart.Now())
				}
				emitted := false
				for i, b := range bs {
					want, err := oracle.ProcessBatch(b)
					if err != nil {
						t.Fatal(err)
					}
					want = slices.Clone(want)
					got, err := s.ProcessBatch(b)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("batch %d: results differ from the from-start engine:\n got %v\nwant %v", i, got, want)
					}
					if err := member.CheckInvariants(); err != nil {
						t.Fatalf("batch %d: %v", i, err)
					}
					for _, r := range got {
						emitted = emitted || r.Query == 1
					}
				}
				if !emitted {
					t.Fatal("the registered query emitted nothing; test is vacuous")
				}
			})
		}
	}
}
