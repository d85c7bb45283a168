package shard

import (
	"testing"

	"streamrpq/internal/core"
	"streamrpq/internal/datasets"
	"streamrpq/internal/window"
	"streamrpq/internal/workload"
)

// BenchmarkShardBatch times ProcessBatch on one shard over the SO
// generator's stream with Table 2's 11 queries registered twice (22
// queries in 10 shared groups: Q4 (a|b|c)* evaluates in Q9 (a|b|c)+'s,
// see core.GroupBinding), window 100 slide 10: one iteration is
// the stream's next 32-tuple batch, after a warm-up that fills the
// window. Give it a fixed -benchtime Nx with N at most 1024, the
// stream's timed batches. It asserts the timed batches' record count
// against the reference coordinator core.Multi.
func BenchmarkShardBatch(b *testing.B) {
	const warm, batch, timed = 2048, 32, 1024
	cfg := datasets.DefaultSO(50_000)
	cfg.Edges = warm + timed*batch
	d := datasets.SO(cfg)
	qs := workload.MustQueries(d)
	spec := window.Spec{Size: 100, Slide: 10}
	s, err := New(spec)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for range 2 {
		for _, q := range qs {
			if _, err := s.Add(q.Bound, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	if st := s.Stats(); st.Groups != len(qs)-1 {
		b.Fatalf("%d groups, want %d", st.Groups, len(qs)-1)
	}
	next, records := 0, 0
	process := func() {
		rs, err := s.ProcessBatch(d.Tuples[next : next+batch])
		if err != nil {
			b.Fatal(err)
		}
		next += batch
		records += len(rs)
	}
	for next < warm {
		process()
	}
	records = 0
	b.ReportAllocs()
	for b.Loop() {
		if next == len(d.Tuples) {
			b.Fatalf("the stream holds %d timed batches; give -benchtime Nx with N at most that", timed)
		}
		process()
	}

	ref, err := core.NewMulti(spec)
	if err != nil {
		b.Fatal(err)
	}
	want, cur := 0, 0
	count := func(core.Match) {
		if cur >= warm {
			want++
		}
	}
	sink := core.FuncSink{Match: count, Invalidate: count}
	for range 2 {
		for _, q := range qs {
			if _, err := ref.Add(q.Bound, core.WithSink(sink)); err != nil {
				b.Fatal(err)
			}
		}
	}
	for cur = 0; cur < next; cur++ {
		ref.Process(d.Tuples[cur])
	}
	if records == 0 || records != want {
		b.Fatalf("the timed batches produced %d records, the reference coordinator %d", records, want)
	}
}
