package streamrpq

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The facade model checks MultiEvaluator, with and without persistence,
// on generated operation sequences: registrations, runs of string tuples
// through Ingest and IngestBatch, removals, checkpoints and kills. Every
// configuration (shard count, batch size, persistence) is held to three
// rules:
//
//  1. Each registration's records equal a private arbitrary-semantics
//     Evaluator fed the whole stream, from the registration's tuple on
//     and before its removal (model.private); every configuration
//     delivers the canonical run's records in its order.
//  2. Across a kill, Recover redelivers exactly the batches after the
//     last commit record that survived, each whole or not at all, so the
//     committed records, the redelivered ones and the continuation equal
//     the uninterrupted stream (runner.kill).
//  3. Stats, RegisteredQueries and registration ids equal the one-shard
//     unpersisted run's at the same batch cutting after every step
//     (runner.after), ExpiryTime aside, and InsertCalls aside after a
//     Recover on a stream with deletions (see Recover).

// facadePool is the registration pool: the shard model's pool (an
// equivalent pair, R*/R+ twins, a*/b*, c*) plus e/(a|b)*, whose label the
// stream carries only from its third run on.
var facadePool = []string{"a/b*", "a|(a/b*)", "a*", "a+", "a/a*", "(a/b)*", "(a/b)+", "a*/b*", "c*", "e/(a|b)*"}

// facadeLabels are the stream's labels: no query reads d, and e appears
// from the third run on.
var facadeLabels = []string{"a", "b", "c", "d", "e"}

type opKind uint8

const (
	opRun        opKind = iota // ingest tuples
	opAdd                      // register expr as registration query
	opRemove                   // remove registration query
	opCheckpoint               // Checkpoint (persisted configurations only)
	opKill                     // Close, damage the directory, Recover (persisted only)
)

// killKind is the damage a kill leaves in the persistence directory.
type killKind uint8

const (
	intact       killKind = iota // leave the directory as Close left it
	cutWAL                       // truncate the newest WAL segment at byte at
	flipWAL                      // flip a bit of the newest WAL segment past its header
	flipSnapshot                 // flip a bit of the newest snapshot
)

type op struct {
	kind   opKind
	expr   string
	query  int
	tuples []Tuple
	kill   killKind
	at     int // the damaged byte, reduced modulo the file's length
}

type scenario struct {
	size, slide int64
	every       int // CheckpointEvery of the persisted configurations
	ops         []op
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

// generate draws a scenario: a window, one to four registrations
// (constructor arguments), then up to eight runs of tuples over six
// vertices, each run but the first preceded by nothing, a checkpoint, a
// kill, two kills in a row or, in two scenarios of three, a mid-stream
// AddQuery or RemoveQuery. A tuple ties the previous timestamp, advances
// it by one, by a slide or past the whole window; it inserts an edge,
// refreshes an earlier one, deletes a recent one (likely present) or
// deletes any earlier one (maybe deleted or expired already). Without a
// kill drawn, one goes before the last run.
func generate(c *choices) scenario {
	slide := int64(1 + c.intn(4))
	sc := scenario{size: slide * int64(2+c.intn(5)), slide: slide, every: 3 * c.intn(2)}
	var live []int
	regs := 0
	add := func(mid bool) {
		expr := facadePool[c.intn(len(facadePool))]
		if mid && c.intn(3) == 0 {
			expr = facadePool[len(facadePool)-1]
		}
		sc.ops = append(sc.ops, op{kind: opAdd, expr: expr, query: regs})
		live = append(live, regs)
		regs++
	}
	kills := 0
	kill := func() op {
		kills++
		return op{kind: opKill, kill: killKind(c.intn(4)), at: c.intn(256)<<8 | c.intn(256)}
	}
	for range 1 + c.intn(4) {
		add(false)
	}
	churn := c.intn(3) > 0
	var ts int64
	var hist []Tuple
	for r := 0; r < 8 && c.more(); r++ {
		if r > 0 {
			switch c.intn(7) {
			case 0:
				if churn {
					add(true)
				}
			case 1:
				if churn && len(live) > 0 {
					i := c.intn(len(live))
					sc.ops = append(sc.ops, op{kind: opRemove, query: live[i]})
					live = slices.Delete(live, i, i+1)
				}
			case 2:
				sc.ops = append(sc.ops, op{kind: opCheckpoint})
			case 3:
				sc.ops = append(sc.ops, kill())
			case 4:
				sc.ops = append(sc.ops, kill(), kill())
			}
		}
		labels := facadeLabels[:4]
		if r >= 2 {
			labels = facadeLabels
		}
		run := make([]Tuple, 1+c.intn(40))
		for i := range run {
			switch c.intn(8) {
			case 3, 4, 5:
				ts++
			case 6:
				ts += slide
			case 7:
				ts += sc.size + int64(c.intn(int(slide)))
			}
			var tu Tuple
			switch k := c.intn(10); {
			case k < 5 || len(hist) == 0:
				tu = Tuple{Src: fmt.Sprint("v", c.intn(6)), Dst: fmt.Sprint("v", c.intn(6)), Label: labels[c.intn(len(labels))]}
				hist = append(hist, tu)
			case k < 6:
				tu = hist[c.intn(len(hist))]
				hist = append(hist, tu)
			case k < 8:
				tu = hist[len(hist)-1-c.intn(min(4, len(hist)))]
				tu.Delete = true
			default:
				tu = hist[c.intn(len(hist))]
				tu.Delete = true
			}
			tu.TS = ts
			run[i] = tu
		}
		sc.ops = append(sc.ops, op{kind: opRun, tuples: run})
	}
	if kills == 0 {
		sc.ops = slices.Insert(sc.ops, len(sc.ops)-1, kill())
	}
	return sc
}

// model is a scenario with, by registration index, each query's source
// and the stream-global tuple index of its registration and of its
// removal (math.MaxInt while live).
type model struct {
	sc       scenario
	initial  int // registrations passed to NewMultiEvaluator
	exprs    []string
	from, to []int
	static   bool // no registration after the constructor, none removed
	deletes  bool // the stream holds a deletion
	firstE   int  // the first tuple labelled e (math.MaxInt if none)
}

func newModel(sc scenario) *model {
	m := &model{sc: sc, static: true, firstE: math.MaxInt}
	for m.initial < len(sc.ops) && sc.ops[m.initial].kind == opAdd {
		m.initial++
	}
	n := 0
	for i, o := range sc.ops {
		switch o.kind {
		case opAdd:
			m.static = m.static && i < m.initial
			m.exprs = append(m.exprs, o.expr)
			m.from, m.to = append(m.from, n), append(m.to, math.MaxInt)
		case opRemove:
			m.to[o.query], m.static = n, false
		case opRun:
			for _, tu := range o.tuples {
				m.deletes = m.deletes || tu.Delete
				if tu.Label == "e" {
					m.firstE = min(m.firstE, n)
				}
				n++
			}
		}
	}
	return m
}

// rec is one delivered record with its stream-global tuple index and its
// registration index.
type rec struct {
	Tuple, Query int
	Inval        bool
	Match
}

// byName orders records by tuple, registration, kind and then (From, To,
// TS) by name; the engines order a cell by vertex id.
func byName(a, b rec) int {
	return cmp.Or(cmp.Compare(a.Tuple, b.Tuple), cmp.Compare(a.Query, b.Query),
		compareBool(a.Inval, b.Inval), strings.Compare(a.From, b.From),
		strings.Compare(a.To, b.To), cmp.Compare(a.TS, b.TS))
}

func compareBool(a, b bool) int {
	if a == b {
		return 0
	}
	if b {
		return -1
	}
	return 1
}

// private is rule 1's reference: one arbitrary-semantics Evaluator per
// registration fed the whole stream. It returns the records each
// registration owes from its registration tuple on and before its
// removal, sorted byName, and the Evaluators' summed delivery counters.
func (m *model) private(t testing.TB) ([]rec, Stats) {
	t.Helper()
	var out []rec
	cur := 0
	evs := make([]*Evaluator, len(m.exprs))
	keep := func(q int, inval bool, mt Match) {
		if cur >= m.from[q] && cur < m.to[q] {
			out = append(out, rec{Tuple: cur, Query: q, Inval: inval, Match: mt})
		}
	}
	for q, expr := range m.exprs {
		ev, err := NewEvaluator(MustCompile(expr), WithWindow(m.sc.size, m.sc.slide),
			WithOnInvalidate(func(mt Match) { keep(q, true, mt) }))
		if err != nil {
			t.Fatal(err)
		}
		evs[q] = ev
	}
	for _, o := range m.sc.ops {
		for _, tu := range o.tuples {
			for q, ev := range evs {
				ms, err := ev.Ingest(tu)
				if err != nil {
					t.Fatal(err)
				}
				for _, mt := range ms {
					keep(q, false, mt)
				}
			}
			cur++
		}
	}
	slices.SortFunc(out, byName)
	var sum Stats
	for _, ev := range evs {
		st := ev.Stats()
		sum.Results += st.Results
		sum.Invalidations += st.Invalidations
	}
	return out, sum
}

// step is one operation of a run: a registration, removal, checkpoint
// or kill, or one batch of a run of tuples.
type step struct {
	o     *op
	batch []Tuple
	first int // stream-global index of the step's first tuple
	idx   int // batch index
}

// steps cuts the scenario's runs into batches, after the constructor's
// registrations.
func (m *model) steps(batch int) []step {
	var out []step
	n, b := 0, 0
	for i := m.initial; i < len(m.sc.ops); i++ {
		o := &m.sc.ops[i]
		if o.kind != opRun {
			out = append(out, step{o: o, first: n})
			continue
		}
		for lo := 0; lo < len(o.tuples); lo += batch {
			hi := min(lo+batch, len(o.tuples))
			out = append(out, step{o: o, batch: o.tuples[lo:hi], first: n, idx: b})
			n += hi - lo
			b++
		}
	}
	return out
}

// variant is one facade configuration. A persisted one runs with
// CheckpointEvery(scenario.every) and executes the checkpoints and kills.
type variant struct {
	shards, batch int
	persist       bool
}

// grid is every configuration at every batch size, the one-shard
// unpersisted one first at each.
func grid(batchSizes ...int) []variant {
	var out []variant
	for _, b := range batchSizes {
		for _, p := range []bool{false, true} {
			for s := 1; s <= 3; s++ {
				out = append(out, variant{s, b, p})
			}
		}
	}
	return out
}

// trace is what one configuration delivered: its records by batch index,
// and Stats and RegisteredQueries (by source, "" for a removed slot)
// after construction and after every step.
type trace struct {
	recs  [][]rec
	stats []Stats
	regs  [][]string
}

// coverage counts, by case, what the runs saw.
type coverage map[string]int

// coverageCases are the cases the facade and recovery treat apart: over
// the seed set the model must see each, or it checks nothing there.
var coverageCases = []string{
	"invalidation",
	"tuple no query reads",
	"mid-stream AddQuery",
	"AddQuery on a label the stream carried first",
	"RemoveQuery",
	"static query set",
	"shared group",
	"kill: WAL cut inside its header",
	"kill: batch record lost, batch fed again",
	"kill: commit lost, batch redelivered",
	"kill: nothing lost",
	"kill: WAL byte flipped",
	"kill: newest snapshot corrupt, older one recovered",
	"kill after a redelivering Recover",
	"Recover with a removed slot",
	"AddQuery after Recover",
}

// mark is the newest WAL segment's length after a step, with the batches
// applied by then: every commit record up to it acknowledges them.
type mark struct {
	size    int64
	batches int
}

// runner drives one configuration through the scenario.
type runner struct {
	t     testing.TB
	m     *model
	cf    variant
	ref   *trace // the one-shard unpersisted run at the same batch size; nil for it
	tr    *trace
	cov   coverage
	steps []step
	ev    *MultiEvaluator
	dir   string

	applied   int               // batches applied
	recovered bool              // a Recover ran
	redeliver bool              // the last kill redelivered a batch
	marks     map[string][]mark // by WAL segment
	flipped   map[string]bool   // snapshots a kill corrupted
	regSnap   map[string]bool   // snapshots an AddQuery or RemoveQuery wrote
}

// run drives one configuration through the scenario and returns its
// trace, checking rule 3 after every step and rule 2 at every kill.
func (m *model) run(t testing.TB, cf variant, ref *trace, cov coverage) *trace {
	t.Helper()
	r := &runner{t: t, m: m, cf: cf, ref: ref, tr: &trace{}, cov: cov, steps: m.steps(cf.batch),
		marks: map[string][]mark{}, flipped: map[string]bool{}, regSnap: map[string]bool{}}
	var qs []*Query
	for _, e := range m.exprs[:m.initial] {
		qs = append(qs, MustCompile(e))
	}
	ev, err := NewMultiEvaluator(m.sc.size, m.sc.slide, qs...)
	if err != nil {
		t.Fatal(err)
	}
	r.ev = ev
	defer func() { r.ev.Close() }()
	if cf.shards > 1 {
		if err := ev.WithShards(cf.shards); err != nil {
			t.Fatal(err)
		}
	}
	if cf.persist {
		r.dir = t.TempDir()
		if err := ev.WithPersistence(r.dir, CheckpointEvery(m.sc.every)); err != nil {
			t.Fatal(err)
		}
		r.mark()
	}
	for _, s := range r.steps {
		if s.o.kind == opRun {
			r.tr.recs = append(r.tr.recs, nil)
		}
	}
	r.after(-1)
	for p := 0; p < len(r.steps); p++ {
		s := r.steps[p]
		switch s.o.kind {
		case opRun:
			r.ingest(s)
		case opAdd:
			id, err := r.ev.AddQuery(MustCompile(s.o.expr))
			if err != nil || id != s.o.query {
				t.Fatalf("%+v: AddQuery(%s) = %d, %v; want registration %d", cf, s.o.expr, id, err, s.o.query)
			}
			if s.first > m.firstE && s.o.expr == facadePool[len(facadePool)-1] {
				cov["AddQuery on a label the stream carried first"]++
			}
			if r.recovered {
				cov["AddQuery after Recover"]++
			}
			cov["mid-stream AddQuery"]++
		case opRemove:
			if err := r.ev.RemoveQuery(s.o.query); err != nil {
				t.Fatalf("%+v: RemoveQuery(%d): %v", cf, s.o.query, err)
			}
			cov["RemoveQuery"]++
		case opCheckpoint:
			if cf.persist {
				if err := r.ev.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		case opKill:
			if cf.persist {
				// Feed again the batches the kill lost, then go on.
				for q := r.kill(p, s.o); q < p; q++ {
					switch r.steps[q].o.kind {
					case opRun:
						r.ingest(r.steps[q])
						r.after(q)
					case opKill:
					default:
						t.Fatalf("%+v: a kill lost the batches before step %d (%v)", cf, q, r.steps[q].o.kind)
					}
				}
			}
		}
		if cf.persist && (s.o.kind == opAdd || s.o.kind == opRemove) {
			snaps := r.files("snap-*.ckpt")
			r.regSnap[snaps[len(snaps)-1]] = true
		}
		if s.o.kind != opKill {
			r.redeliver = false
		}
		r.after(p)
	}
	return r.tr
}

// ingest feeds one batch, through Ingest at batch size 1 and IngestBatch
// otherwise, and keeps its records.
func (r *runner) ingest(s step) {
	r.t.Helper()
	var brs []BatchResult
	if r.cf.batch == 1 {
		qrs, err := r.ev.Ingest(s.batch[0])
		if err != nil {
			r.t.Fatal(err)
		}
		for _, qr := range qrs {
			i := slices.Index(r.ev.RegisteredQueries(), qr.Query)
			brs = append(brs, BatchResult{Query: qr.Query, QueryIndex: i, Matches: qr.Matches, Invalidations: qr.Invalidations})
		}
	} else {
		var err error
		if brs, err = r.ev.IngestBatch(s.batch); err != nil {
			r.t.Fatal(err)
		}
	}
	r.tr.recs[s.idx] = r.flatten(s.first, brs)
	r.applied = s.idx + 1
}

// flatten turns one batch's results into records, checking that each
// names the query registered under its index.
func (r *runner) flatten(first int, brs []BatchResult) []rec {
	r.t.Helper()
	var out []rec
	for _, br := range brs {
		if q := r.ev.QueryByIndex(br.QueryIndex); q != br.Query || q == nil {
			r.t.Fatalf("%+v: a result of %v carries registration %d, which holds %v", r.cf, br.Query, br.QueryIndex, q)
		}
		for _, mt := range br.Matches {
			out = append(out, rec{Tuple: first + br.Tuple, Query: br.QueryIndex, Match: mt})
		}
		for _, mt := range br.Invalidations {
			out = append(out, rec{Tuple: first + br.Tuple, Query: br.QueryIndex, Inval: true, Match: mt})
		}
	}
	return out
}

// after records Stats and RegisteredQueries after step p (-1: after
// construction) and, in every configuration but the reference, checks
// them against the reference's (rule 3). In a persisted configuration
// it marks the newest WAL segment's length.
func (r *runner) after(p int) {
	r.t.Helper()
	st := r.ev.Stats()
	st.ExpiryTime = 0
	var regs []string
	live := 0
	for _, q := range r.ev.RegisteredQueries() {
		if q == nil {
			regs = append(regs, "")
		} else {
			regs, live = append(regs, q.String()), live+1
		}
	}
	if n := r.ev.NumQueries(); n != live {
		r.t.Fatalf("%+v: after step %d NumQueries = %d, with %d live registrations", r.cf, p, n, live)
	}
	if st.SharedGroups > 0 {
		r.cov["shared group"]++
	}
	for len(r.tr.stats) <= p+1 {
		r.tr.stats, r.tr.regs = append(r.tr.stats, Stats{}), append(r.tr.regs, nil)
	}
	r.tr.stats[p+1], r.tr.regs[p+1] = st, regs
	if r.cf.persist {
		r.mark()
	}
	if r.ref == nil {
		return
	}
	want := r.ref.stats[p+1]
	if r.recovered && r.m.deletes {
		st.InsertCalls, want.InsertCalls = 0, 0
	}
	if st != want {
		r.t.Fatalf("%+v: after step %d counters differ from the one-shard unpersisted run's:\nwant %+v\ngot  %+v", r.cf, p, want, st)
	}
	if !slices.Equal(regs, r.ref.regs[p+1]) {
		r.t.Fatalf("%+v: after step %d RegisteredQueries %q, the one-shard unpersisted run's %q", r.cf, p, regs, r.ref.regs[p+1])
	}
	if n := r.ev.NumShards(); n != r.cf.shards {
		r.t.Fatalf("%+v: after step %d the evaluator runs %d shards", r.cf, p, n)
	}
}

// files lists the persistence directory's files matching pattern, by
// generation.
func (r *runner) files(pattern string) []string {
	r.t.Helper()
	out, err := filepath.Glob(filepath.Join(r.dir, pattern))
	if err != nil || len(out) == 0 {
		r.t.Fatalf("%+v: no %s in the persistence directory (%v)", r.cf, pattern, err)
	}
	slices.Sort(out)
	return out
}

func (r *runner) mark() {
	r.t.Helper()
	wals := r.files("wal-*.log")
	seg := wals[len(wals)-1]
	info, err := os.Stat(seg)
	if err != nil {
		r.t.Fatal(err)
	}
	r.marks[seg] = append(r.marks[seg], mark{info.Size(), r.applied})
}

// kill closes the evaluator, damages the persistence directory, recovers
// it and checks rule 2: AppliedTuples and the redelivered results are
// exactly those of the batches the surviving WAL holds. It returns the
// step to feed again from: the first batch recovery did not apply.
//
// The newest WAL segment's marks say which batches survive: a cut or a
// flipped byte at b keeps every record before b whole, so every batch
// acknowledged at the last mark at or below b; the record after that
// mark is the next batch's, applied and redelivered, unacknowledged,
// when b lies past its end. A corrupt newest snapshot loses nothing:
// recovery falls back a generation and replays the longer WAL suffix.
// It is drawn only when an older, undamaged snapshot exists and the
// newest one was not written by AddQuery or RemoveQuery (recovering
// past one would lose that registration change).
func (r *runner) kill(p int, o *op) int {
	r.t.Helper()
	if err := r.ev.Close(); err != nil {
		r.t.Fatal(err)
	}
	kind := o.kill
	snaps := r.files("snap-*.ckpt")
	newest := snaps[len(snaps)-1]
	if kind == flipSnapshot && (r.flipped[newest] || r.regSnap[newest] ||
		!slices.ContainsFunc(snaps[:len(snaps)-1], func(s string) bool { return !r.flipped[s] })) {
		kind = cutWAL
	}
	wals := r.files("wal-*.log")
	seg := wals[len(wals)-1]
	data, err := os.ReadFile(seg)
	if err != nil {
		r.t.Fatal(err)
	}
	ms := r.marks[seg]
	if r.redeliver {
		r.cov["kill after a redelivering Recover"]++
	}
	b := int64(len(data)) // where the segment's damage starts
	switch hdr := ms[0].size; {
	case kind == flipSnapshot:
		snap, err := os.ReadFile(newest)
		if err != nil {
			r.t.Fatal(err)
		}
		snap[o.at%len(snap)] ^= 0x10
		if err := os.WriteFile(newest, snap, 0o644); err != nil {
			r.t.Fatal(err)
		}
		r.flipped[newest] = true
		r.cov["kill: newest snapshot corrupt, older one recovered"]++
	case kind == flipWAL && b > hdr:
		b = hdr + int64(o.at)%(b-hdr)
		damaged := slices.Clone(data)
		damaged[b] ^= 0x10
		if err := os.WriteFile(seg, damaged, 0o644); err != nil {
			r.t.Fatal(err)
		}
		r.cov["kill: WAL byte flipped"]++
	case kind != intact:
		b = int64(o.at) % (b + 1)
		if err := os.Truncate(seg, b); err != nil {
			r.t.Fatal(err)
		}
		if b < hdr {
			r.cov["kill: WAL cut inside its header"]++
		}
	}
	k := 0
	for i, mk := range ms {
		if mk.size <= b {
			k = i
		}
	}
	keep, redeliver := ms[k].batches, false
	// A cut inside the header leaves no record: recovery recreates the
	// segment.
	if k+1 < len(ms) && b >= ms[0].size {
		at := ms[k].size
		n, w := binary.Uvarint(data[at+1:])
		if data[at] != 1 || w <= 0 {
			r.t.Fatalf("%+v: no batch record at WAL offset %d after a mark", r.cf, at)
		}
		redeliver = b >= at+1+int64(w)+int64(n)+4
	}
	r.marks[seg] = ms[:k+1]
	switch {
	case redeliver:
		r.cov["kill: commit lost, batch redelivered"]++
	case keep < r.applied:
		r.cov["kill: batch record lost, batch fed again"]++
	default:
		r.cov["kill: nothing lost"]++
	}

	ev, redelivered, err := Recover(r.dir, CheckpointEvery(r.m.sc.every))
	if err != nil {
		r.t.Fatalf("%+v: step %d: Recover: %v", r.cf, p, err)
	}
	r.ev, r.recovered, r.redeliver = ev, true, redeliver
	if slices.Contains(ev.RegisteredQueries(), nil) {
		r.cov["Recover with a removed slot"]++
	}
	// resume is the step of a batch the kill may have lost, or the kill's
	// own step if it lost none.
	resume := func(batch int) int {
		if i := slices.IndexFunc(r.steps[:p], func(s step) bool { return s.o.kind == opRun && s.idx == batch }); i >= 0 {
			return i
		}
		return p
	}
	if redeliver {
		r.tr.recs[keep] = r.flatten(r.steps[resume(keep)].first, redelivered)
		keep++
	} else if len(redelivered) > 0 {
		r.t.Fatalf("%+v: step %d: Recover redelivered %d result groups, yet every surviving batch was acknowledged", r.cf, p, len(redelivered))
	}
	from := resume(keep)
	if got, want := ev.AppliedTuples(), int64(r.steps[from].first); got != want {
		r.t.Fatalf("%+v: step %d: recovered AppliedTuples = %d, want %d (batches %d, redelivered %v)", r.cf, p, got, want, keep, redeliver)
	}
	for i := keep; i < len(r.tr.recs); i++ {
		r.tr.recs[i] = nil
	}
	r.applied = keep
	r.after(from - 1)
	return from
}

// check runs the scenario in every configuration — the first must be the
// canonical one: one shard, batch size 1, unpersisted — and applies the
// rules: the canonical run's records, sorted byName, equal the private
// Evaluators' (rule 1); every other configuration delivers exactly the
// canonical run's records in its order, so across its kills too (rules 1
// and 2); and, for a static query set, every configuration's delivery
// counters equal the Evaluators' sums. Rule 3 is checked as each
// configuration runs, against the first one at its batch size.
func (m *model) check(t testing.TB, configs []variant, cov coverage) {
	t.Helper()
	want, sum := m.private(t)
	var canon []rec
	refs := map[int]*trace{}
	for i, cf := range configs {
		tr := m.run(t, cf, refs[cf.batch], cov)
		got := slices.Concat(tr.recs...)
		if i == 0 {
			sorted := slices.SortedFunc(slices.Values(got), byName)
			if d := firstDifference(want, sorted); d >= 0 {
				t.Fatalf("%+v: %d records, private Evaluators %d; first difference at %d:\nprivate %v\ngot     %v",
					cf, len(sorted), len(want), d, want[d:min(d+1, len(want))], sorted[d:min(d+1, len(sorted))])
			}
			canon = got
			for _, r := range got {
				if r.Inval {
					cov["invalidation"]++
				}
			}
			if m.static {
				cov["static query set"]++
			}
		} else if d := firstDifference(canon, got); d >= 0 {
			t.Fatalf("%+v: %d records, the canonical run %d; first difference at %d:\ncanonical %v\ngot       %v",
				cf, len(got), len(canon), d, canon[d:min(d+1, len(canon))], got[d:min(d+1, len(got))])
		}
		if last := tr.stats[len(tr.stats)-1]; m.static && (last.Results != sum.Results || last.Invalidations != sum.Invalidations) {
			t.Fatalf("%+v: results %d invalidations %d, private Evaluators %d/%d",
				cf, last.Results, last.Invalidations, sum.Results, sum.Invalidations)
		}
		if refs[cf.batch] == nil {
			refs[cf.batch] = tr
		}
	}
	for _, o := range m.sc.ops {
		for _, tu := range o.tuples {
			if tu.Label == "d" {
				cov["tuple no query reads"]++
			}
		}
	}
}

// firstDifference returns the first index where a and b differ, or -1.
func firstDifference(a, b []rec) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// TestFacadeModel runs the model over a fixed seed set, each scenario at
// shard counts 1, 2 and 3 × batch sizes 1, 7 and 64 × unpersisted and
// persisted. It fails as vacuous unless the runs saw every case in
// coverageCases.
func TestFacadeModel(t *testing.T) {
	cov := coverage{}
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			m := newModel(generate(&choices{rng: rand.New(rand.NewSource(seed))}))
			m.check(t, grid(1, 7, 64), cov)
		})
	}
	t.Log(cov)
	for _, c := range coverageCases {
		if cov[c] == 0 {
			t.Errorf("no %s over the seed set: the model is vacuous there", c)
		}
	}
}

// FuzzFacade runs the model on scenarios decoded from the fuzzer's bytes:
// the first three pick a shard count (1–3), a batch size (1–64) and
// persistence, compared with the canonical run and the one-shard
// unpersisted run at that batch size; the rest drive the generator.
func FuzzFacade(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 6, 1, 3, 2, 4, 3, 1, 20, 3, 0, 1, 2, 0, 4, 5, 1, 0, 0, 0, 6, 2, 3, 9, 7})
	f.Fuzz(func(t *testing.T, b []byte) {
		c := &choices{b: b}
		cf := variant{shards: 1 + c.intn(3), batch: 1 + c.intn(64), persist: c.intn(2) == 1}
		configs := []variant{{1, 1, false}}
		for _, v := range []variant{{1, cf.batch, false}, cf} {
			if !slices.Contains(configs, v) {
				configs = append(configs, v)
			}
		}
		newModel(generate(c)).check(t, configs, coverage{})
	})
}
