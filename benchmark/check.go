package main

import (
	"encoding/json"
	"fmt"
	"os"

	"streamrpq"
	"streamrpq/internal/automaton"
	"streamrpq/internal/baseline"
	"streamrpq/internal/core"
	"streamrpq/internal/pattern"
	"streamrpq/internal/window"
)

// rec is one result record — a match or an invalidation of one
// registered query — as a consumer sees it, whichever way it arrived
// (BatchResult from the library, NDJSON from the server).
type rec struct {
	query    int // registration index
	inv      bool
	from, to string
	ts       int64
}

// hash is FNV-1a over the record's fields, allocation-free.
func (r rec) hash() uint64 {
	h := uint64(fnvOffset)
	h = fnvInt(h, int64(r.query))
	if r.inv {
		h = fnvInt(h, 1)
	}
	h = fnvString(h, r.from)
	h = fnvString(h, r.to)
	return fnvInt(h, r.ts)
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return (h ^ 0xff) * fnvPrime // terminator: ("ab","c") ≠ ("a","bc")
}

func fnvInt(h uint64, v int64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(v>>(8*i)))) * fnvPrime
	}
	return h
}

// batchHash folds the records of one batch, in stream order across
// timestamp groups and order-free within one: the sequential and the
// sharded backend attribute a match to different tuples of one
// timestamp tie-group and order a (tuple, query) cell differently, but
// agree on what each timestamp produced.
type batchHash struct {
	sum  uint64
	cell uint64 // commutative sum over the current timestamp group
	ts   int64
	n    int
}

func (b *batchHash) add(r rec) {
	if b.n > 0 && r.ts != b.ts {
		b.fold()
	}
	b.ts = r.ts
	b.cell += r.hash()
	b.n++
}

func (b *batchHash) fold() {
	b.sum = (b.sum ^ b.cell) * fnvPrime
	b.cell = 0
}

func (b *batchHash) done() uint64 {
	b.fold()
	return b.sum
}

// streamHash is the ordered fold of batch hashes plus the record count:
// the identity of a whole result stream.
type streamHash struct {
	Hash    uint64 `json:"hash"`
	Records int64  `json:"records"`
}

func (s *streamHash) addBatch(h uint64, n int) {
	s.Hash = (s.Hash ^ h) * fnvPrime
	s.Records += int64(n)
}

// records flattens one IngestBatch reply into records, in the canonical
// merge order (tuple, query registration index, matches before
// invalidations) the server publishes in.
func records(dst []rec, brs []streamrpq.BatchResult, index map[*streamrpq.Query]int) []rec {
	dst = dst[:0]
	for _, br := range brs {
		q := index[br.Query]
		for _, m := range br.Matches {
			dst = append(dst, rec{query: q, from: m.From, to: m.To, ts: m.TS})
		}
		for _, m := range br.Invalidations {
			dst = append(dst, rec{query: q, inv: true, from: m.From, to: m.To, ts: m.TS})
		}
	}
	return dst
}

// pairKey is one distinct reported pair of one query.
type pairKey struct {
	query    int
	from, to string
}

// oracle recomputes, with the per-tuple rescan baseline over the batch
// algorithm (baseline.Rescan → core.BatchWindowed), the distinct pairs
// every query must have reported over the first n tuples, and compares
// them with what the system reported.
func oracle(s spec, in *input, n int, got map[pairKey]struct{}) error {
	spec := window.Spec{Size: s.window, Slide: s.slide}
	byText := map[string]map[core.Pair]struct{}{}
	want := 0
	for qi, text := range in.queries {
		pairs, ok := byText[text]
		if !ok {
			bound, err := bind(in, text)
			if err != nil {
				return err
			}
			sink := core.NewCollector()
			eng := baseline.NewRescan(bound, spec, baseline.WithSink(sink))
			for _, t := range in.tuples[:n] {
				eng.Process(t)
			}
			pairs = sink.Pairs()
			byText[text] = pairs
		}
		want += len(pairs)
		for p := range pairs {
			k := pairKey{query: qi, from: in.names[p.From], to: in.names[p.To]}
			if _, ok := got[k]; !ok {
				return fmt.Errorf("oracle: query %d (%s) never reported %s→%s within the first %d tuples", qi, text, k.from, k.to, n)
			}
		}
	}
	if want != len(got) {
		return fmt.Errorf("oracle: %d distinct pairs reported over the first %d tuples, the rescan baseline finds %d", len(got), n, want)
	}
	return nil
}

// bind compiles a pattern against the input's dense label space, the
// way the facade does against its own dictionary.
func bind(in *input, text string) (*automaton.Bound, error) {
	expr, err := pattern.Parse(text)
	if err != nil {
		return nil, fmt.Errorf("query %q: %w", text, err)
	}
	return automaton.Compile(pattern.Simplify(expr)).Bind(in.labelID, len(in.labels)), nil
}

// golden holds, for the default seed, the identity of each workload's
// result stream over its fixed check prefix.
type golden struct {
	Seed      int64                 `json:"seed"`
	Workloads map[string]streamHash `json:"workloads"`
}

func loadGolden(path string) (*golden, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &g, nil
}
