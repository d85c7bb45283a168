package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"streamrpq/internal/automaton"
	"streamrpq/internal/stream"
	"streamrpq/internal/window"
)

// updateRSPQGolden re-records testdata/rspq_golden.json from whatever
// engine is compiled in. The checked-in recording was taken from the
// pointer-tree RSPQ engine this repository had before RSPQ moved onto
// the shared slot store; it is the byte-identity gate for any rewrite
// of the simple-path engine and must not be re-recorded to make a
// refactor pass.
var updateRSPQGolden = flag.Bool("update-rspq-golden", false, "re-record testdata/rspq_golden.json")

// rspqGoldenRecord is the observable outcome of one RSPQ replay: hashes
// of the match and invalidation sequences in emission order (each record
// is the index of the tuple that triggered it, From, To, TS) and the
// exact statistics counters.
type rspqGoldenRecord struct {
	Name           string `json:"name"`
	Matches        string `json:"matches_sha256"`
	Invalidated    string `json:"invalidations_sha256"`
	Results        int64  `json:"results"`
	Invalidations  int64  `json:"invalidations"`
	InsertCalls    int64  `json:"insert_calls"`
	ConflictsFound int64  `json:"conflicts_found"`
	Unmarkings     int64  `json:"unmarkings"`
	Trees          int    `json:"trees"`
	Nodes          int    `json:"nodes"`
	TuplesDropped  int64  `json:"tuples_dropped"`
	ExpiryRuns     int64  `json:"expiry_runs"`
}

// seqHashSink hashes the two result sequences as they are emitted.
type seqHashSink struct {
	tuple      int
	match, inv hash.Hash
}

func writeSeqRecord(h hash.Hash, tuple int, m Match) {
	var buf [28]byte
	binary.LittleEndian.PutUint32(buf[0:], uint32(tuple))
	binary.LittleEndian.PutUint64(buf[4:], uint64(m.From))
	binary.LittleEndian.PutUint64(buf[12:], uint64(m.To))
	binary.LittleEndian.PutUint64(buf[20:], uint64(m.TS))
	h.Write(buf[:])
}

func (s *seqHashSink) OnMatch(m Match)      { writeSeqRecord(s.match, s.tuple, m) }
func (s *seqHashSink) OnInvalidate(m Match) { writeSeqRecord(s.inv, s.tuple, m) }

// rspqReplayRecord replays tuples through a fresh RSPQ engine and
// returns its record. With check set it validates the engine's
// structural invariants after every tuple.
func rspqReplayRecord(t *testing.T, name string, a *automaton.Bound, spec window.Spec, tuples []stream.Tuple, check bool) rspqGoldenRecord {
	t.Helper()
	sink := &seqHashSink{match: sha256.New(), inv: sha256.New()}
	e := NewRSPQ(a, spec, WithSink(sink))
	for i, tu := range tuples {
		sink.tuple = i
		e.Process(tu)
		if check {
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("%s: tuple %d (%v): %v", name, i, tu, err)
			}
		}
	}
	st := e.Stats()
	return rspqGoldenRecord{
		Name:           name,
		Matches:        hex.EncodeToString(sink.match.Sum(nil)),
		Invalidated:    hex.EncodeToString(sink.inv.Sum(nil)),
		Results:        st.Results,
		Invalidations:  st.Invalidations,
		InsertCalls:    st.InsertCalls,
		ConflictsFound: st.ConflictsFound,
		Unmarkings:     st.Unmarkings,
		Trees:          st.Trees,
		Nodes:          st.Nodes,
		TuplesDropped:  st.TuplesDropped,
		ExpiryRuns:     st.ExpiryRuns,
	}
}

// rspqGoldenStream is one replay configuration of the golden gate.
type rspqGoldenStream struct {
	name   string
	a      *automaton.Bound
	spec   window.Spec
	tuples []stream.Tuple
}

// rspqGoldenStreams returns the 33 gated configurations: every
// rspqQueries shape × {append-only, 15 % deletions} × {window 18 slide 4
// (lazy expiry), window 12 slide 1 (eager)} on 300 seeded tuples, plus
// the captured lazy-expiry fixture.
func rspqGoldenStreams(t *testing.T) []rspqGoldenStream {
	t.Helper()
	windows := []struct {
		tag  string
		spec window.Spec
	}{
		{"lazy-w18s4", window.Spec{Size: 18, Slide: 4}},
		{"eager-w12s1", window.Spec{Size: 12, Slide: 1}},
	}
	churn := []struct {
		tag      string
		delRatio float64
	}{
		{"append", 0},
		{"del15", 0.15},
	}
	var out []rspqGoldenStream
	seed := int64(21000)
	for _, q := range rspqQueries {
		a := bind(t, q.expr, q.labels...)
		for _, c := range churn {
			for _, w := range windows {
				seed++
				tuples := randomTuples(rand.New(rand.NewSource(seed)), 300, 7, len(q.labels), 2, c.delRatio)
				out = append(out, rspqGoldenStream{
					name: fmt.Sprintf("%s/%s/%s", q.name, c.tag, w.tag),
					a:    a, spec: w.spec, tuples: tuples,
				})
			}
		}
	}
	fixture := loadFixtureStream(t, filepath.Join("testdata", "rspq-lazy-expiry-trial4.stream"), []string{"a", "b"})
	out = append(out, rspqGoldenStream{
		name: "fixture/rspq-lazy-expiry-trial4",
		a:    bind(t, "(a/b)+", "a", "b"), spec: window.Spec{Size: 18, Slide: 4}, tuples: fixture,
	})
	return out
}

// TestRSPQGoldenStream is the byte-identity gate of the simple-path
// engine: on every gated stream the match sequence, the invalidation
// sequence and every listed counter must equal the checked-in recording,
// and the index invariants must hold after every tuple.
func TestRSPQGoldenStream(t *testing.T) {
	path := filepath.Join("testdata", "rspq_golden.json")
	streams := rspqGoldenStreams(t)
	got := make([]rspqGoldenRecord, 0, len(streams))
	for _, s := range streams {
		got = append(got, rspqReplayRecord(t, s.name, s.a, s.spec, s.tuples, true))
	}
	if *updateRSPQGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("re-recorded %s (%d streams)", path, len(got))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []rspqGoldenRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s records %d streams, the test replays %d", path, len(want), len(got))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("stream %s diverges from the recording:\n got %+v\nwant %+v", got[i].Name, got[i], want[i])
		}
	}
}

// TestRSPQReplayDeterminism states the property the golden recording
// relies on directly: the result stream of the simple-path engine is a
// function of its input. Replays of seeded lazy-expiry, eager-expiry and
// deletion streams must agree on the match sequence, the invalidation
// sequence and every counter — whatever order the runtime iterates the
// engine's maps in this time.
func TestRSPQReplayDeterminism(t *testing.T) {
	a := bind(t, "(a/b)+", "a", "b")
	const replays = 12
	for _, c := range []struct {
		name     string
		spec     window.Spec
		delRatio float64
	}{
		{"lazy", window.Spec{Size: 18, Slide: 4}, 0},
		{"eager", window.Spec{Size: 12, Slide: 1}, 0},
		{"deletions", window.Spec{Size: 18, Slide: 4}, 0.15},
	} {
		t.Run(c.name, func(t *testing.T) {
			tuples := randomTuples(rand.New(rand.NewSource(8989)), 400, 7, 2, 2, c.delRatio)
			first := rspqReplayRecord(t, c.name, a, c.spec, tuples, false)
			if first.ConflictsFound == 0 || first.ExpiryRuns == 0 {
				t.Fatalf("stream exercises no conflict or no expiry: %+v", first)
			}
			for i := 1; i < replays; i++ {
				if got := rspqReplayRecord(t, c.name, a, c.spec, tuples, false); got != first {
					t.Fatalf("replay %d diverges:\n got %+v\nwant %+v", i, got, first)
				}
			}
		})
	}
}

// TestRAPQReplayDeterminism is the same property for the arbitrary-path
// engine standing alone, where no coordinator sorts each tuple's results:
// replays of one stream must agree on the match sequence, the
// invalidation sequence and every counter. The streams put every vertex
// in far more trees than a row once held as a slice, and cross hundreds
// of slide boundaries, so both per-tuple candidate order and the order an
// expiry pass visits the trees in are on the line.
func TestRAPQReplayDeterminism(t *testing.T) {
	a := bind(t, "(a|b)+", "a", "b")
	spec := window.Spec{Size: 200, Slide: 10}
	const replays = 4
	replay := func(tuples []stream.Tuple) (string, string, Stats, int) {
		sink := &seqHashSink{match: sha256.New(), inv: sha256.New()}
		e := NewRAPQ(a, spec, WithSink(sink))
		widest := 0
		for i, tu := range tuples {
			sink.tuple = i
			e.Process(tu)
			widest = max(widest, len(e.inv.appendRoots(tu.Src, nil)))
		}
		st := e.Stats()
		st.ExpiryTime = 0 // wall clock
		return hex.EncodeToString(sink.match.Sum(nil)), hex.EncodeToString(sink.inv.Sum(nil)), st, widest
	}
	for _, c := range []struct {
		name     string
		delRatio float64
	}{
		{"append", 0},
		{"deletions", 0.10},
	} {
		t.Run(c.name, func(t *testing.T) {
			tuples := randomTuples(rand.New(rand.NewSource(4242)), 3000, 60, 2, 1, c.delRatio)
			m0, i0, st0, widest := replay(tuples)
			if widest <= 32 || st0.ExpiryRuns < 100 || (c.delRatio > 0) != (st0.Invalidations > 0) {
				t.Fatalf("stream too tame: widest row %d, stats %+v", widest, st0)
			}
			for i := 1; i < replays; i++ {
				if m, inv, st, _ := replay(tuples); m != m0 || inv != i0 || st != st0 {
					t.Fatalf("replay %d diverges:\n got %s %s %+v\nwant %s %s %+v", i, m, inv, st, m0, i0, st0)
				}
			}
		})
	}
}
