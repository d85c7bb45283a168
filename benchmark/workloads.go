package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"streamrpq"
	"streamrpq/internal/datasets"
	"streamrpq/internal/stream"
	"streamrpq/internal/workload"
)

// spec is one named workload: a seeded input generator plus the
// evaluator configuration the stream is driven through. Every later
// perf or simplicity claim refers to these names.
type spec struct {
	name string
	why  string // one line, mirrored in BENCHMARK.json

	window, slide int64
	batch         int // tuples per IngestBatch / POST /ingest
	warm          int // warm-up prefix (tuples) that fills the window during set-up
	shards        int // 0 = default facade (sequential coordinator)
	writers       int
	dynamic       bool // EnableDynamicQueries: retain-all mode, as rpqserve always runs
	serve         bool // HTTP server + persistence; open loop at rate, then closed loop
	rate          int  // open-loop offered load, tuples/s (serve only)

	tuples  int // generated stream length: the most one run can consume
	probe   int // measured tuples of each isolated layer replay (traced run)
	oracle  int // prefix checked against the rescan baseline
	walTail int // batches logged behind the last checkpoint when the process is abandoned

	dataset func(n int) *datasets.Dataset
	queries func(d *datasets.Dataset) []string
}

// The seed-commit sizing is from a probe on a 2-core box; the contract
// caps one run near 20 s wall, so warm-up prefixes just fill the
// window (16 tuples per tick × window ticks) instead of the tens of
// thousands of tuples a free-standing harness would spend.
var specs = []spec{
	{
		name:   "so-dense",
		why:    "dense cyclic SO graph, 22 queries in 11 shared groups: core delta-insert, graph scans and result decode do the work; single-threaded baseline",
		window: 100, slide: 10, batch: 32, warm: 2048,
		tuples: 48_000, probe: 1600, oracle: 320, walTail: 8,
		dataset: soDataset(0), queries: table2Twice,
	},
	{
		name:   "so-dense-sharded",
		why:    "same input with WithShards(2)/WithWriters(2): shard plan/apply/epoch flip/dispatch/merge and the stripe-parallel applier only run here",
		window: 100, slide: 10, batch: 32, warm: 2048, shards: 2, writers: 2,
		tuples: 64_000, probe: 1600, oracle: 320, walTail: 8,
		dataset: soDataset(0), queries: table2Twice,
	},
	{
		name:   "so-churn",
		why:    "10% explicit deletions and slide 1: delete support counting, per-tick expiry reconnection and version GC write beside the reads",
		window: 100, slide: 1, batch: 32, warm: 2048,
		tuples: 32_000, probe: 1280, oracle: 320, walTail: 8,
		dataset: soDataset(0.10), queries: table2Twice,
	},
	{
		name:   "yago-sparse",
		why:    "sparse 100-label graph, 64 rare-label queries in retain-all mode: dict, graph apply, window expiry and relevance dispatch do the work, delta-insert little",
		window: 200, slide: 20, batch: 256, warm: 8192, dynamic: true,
		tuples: 1_100_000, probe: 65_536, oracle: 1024, walTail: 64,
		dataset: yagoDataset, queries: yagoQueries,
	},
	{
		name:   "serve-durable",
		why:    "the deployed configuration: LDBC over loopback HTTP with WAL and checkpoints, one NDJSON subscriber; serve and persist do work nowhere else",
		window: 100, slide: 10, batch: 32, warm: 9600, dynamic: true, serve: true, rate: 3000,
		tuples: 120_000, probe: 9600, oracle: 1600, walTail: 256,
		dataset: ldbcDataset, queries: ldbcQueries,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// The graph structure of every dataset comes from the generator's own
// default seed, not from --seed. The SO and LDBC windows sit near a
// percolation threshold — whether a few hub edges fall inside the
// window decides how far the Δ trees reach — so two structure seeds
// differ by ≈25% in throughput and ≈18% in live heap (measured over
// ten seeds), which no run short enough for the contract can average
// out and no regression bound could see through. --seed varies what
// can vary without moving the work: the vertex names. (Seed-drawn
// deletion victims moved so-churn's throughput by 5% between seeds, and
// seed-drawn query labels moved yago-sparse's by 26%, so those come
// from the dataset's seed too.) Another seed is still another input,
// byte for byte, with another result stream.

// soDataset keeps the population of datasets.DefaultSO(50_000) (1666
// users) at any stream length, so the window density — and with it the
// ≈300 results per tuple — does not depend on how long a run lasts.
func soDataset(deletions float64) func(int) *datasets.Dataset {
	return func(n int) *datasets.Dataset {
		cfg := datasets.DefaultSO(50_000)
		cfg.Edges = n
		d := datasets.SO(cfg)
		if deletions > 0 {
			d = d.WithDeletions(deletions, cfg.Seed)
			d.Name = "SO" // keep the Table-3 label bindings of internal/workload
		}
		return d
	}
}

func yagoDataset(n int) *datasets.Dataset {
	cfg := datasets.DefaultYago(n)
	cfg.Vertices, cfg.LabelSkew = 1_100_000, 1.1
	return datasets.Yago(cfg)
}

func ldbcDataset(n int) *datasets.Dataset {
	cfg := datasets.DefaultLDBC(n)
	cfg.Persons = 3000
	return datasets.LDBC(cfg)
}

// table2Twice registers the 11 Table-2 templates twice: 22 queries
// that collapse into 11 shared Δ-index groups.
func table2Twice(d *datasets.Dataset) []string {
	var out []string
	for r := 0; r < 2; r++ {
		for _, q := range workload.MustQueries(d) {
			out = append(out, q.Text)
		}
	}
	return out
}

func ldbcQueries(d *datasets.Dataset) []string {
	var out []string
	for _, q := range workload.MustQueries(d) {
		out = append(out, q.Text)
	}
	return out
}

// yagoQueries draws 64 queries over labels of frequency rank ≥ 6, so
// the relevance filter skips most (tuple, group) pairs.
func yagoQueries(d *datasets.Dataset) []string {
	rng := rand.New(rand.NewSource(datasets.DefaultYago(0).Seed))
	pick := func() string { return d.Labels[6+rng.Intn(len(d.Labels)-6)] }
	out := make([]string, 64)
	for i := range out {
		a, b, c := pick(), pick(), pick()
		switch i % 4 {
		case 0:
			out[i] = fmt.Sprintf("%s/%s*", a, b)
		case 1:
			out[i] = fmt.Sprintf("%s*/%s*", a, b)
		case 2:
			out[i] = fmt.Sprintf("(%s|%s|%s)+", a, b, c)
		default:
			out[i] = fmt.Sprintf("%s/%s", a, b)
		}
	}
	return out
}

// input is one generated stream, dictionary-encoded the way the facade
// encodes it — dense vertex and label ids in order of first appearance,
// the query alphabets first among the labels — which is the form the
// internal layers take; names and labels map the ids back to what the
// facade takes. Facade tuples are rendered per batch, off the clock, so
// the pre-generated input stays pointer-free and does not tax the
// measured GC.
type input struct {
	tuples  []stream.Tuple
	names   []string // vertex id → name
	labels  []string // label id → name
	queries []string
}

func generate(s spec, seed int64, n int) (*input, error) {
	ds := s.dataset(n)
	in := &input{tuples: ds.Tuples, queries: s.queries(ds)}
	labels := stream.NewDict()
	qs, err := compileAll(in.queries)
	if err != nil {
		return nil, err
	}
	for _, q := range qs {
		for _, l := range q.Alphabet() {
			labels.ID(l)
		}
	}
	// XOR with a seed-derived mask renames the vertices one to one.
	mask := int(uint64(seed)*2654435761) & (1<<20 - 1)
	var vertex []int32 // generator vertex id → dense id + 1
	dense := func(v stream.VertexID) stream.VertexID {
		for int(v) >= len(vertex) {
			vertex = append(vertex, 0)
		}
		if vertex[v] == 0 {
			in.names = append(in.names, "v"+strconv.Itoa(int(v)^mask))
			vertex[v] = int32(len(in.names))
		}
		return stream.VertexID(vertex[v] - 1)
	}
	for i := range in.tuples {
		t := &in.tuples[i]
		t.Src, t.Dst = dense(t.Src), dense(t.Dst)
		t.Label = stream.LabelID(labels.ID(ds.Labels[t.Label]))
	}
	in.labels = labels.Names()
	return in, nil
}

// labelID resolves a label name against the input's label space.
func (in *input) labelID(name string) int {
	for i, l := range in.labels {
		if l == name {
			return i
		}
	}
	return -1
}

// facade renders tuples [lo, hi) into buf.
func (in *input) facade(buf []streamrpq.Tuple, lo, hi int) []streamrpq.Tuple {
	buf = buf[:0]
	for _, t := range in.tuples[lo:hi] {
		buf = append(buf, streamrpq.Tuple{
			TS:     t.TS,
			Src:    in.names[t.Src],
			Dst:    in.names[t.Dst],
			Label:  in.labels[t.Label],
			Delete: t.Op == stream.Delete,
		})
	}
	return buf
}

// text renders tuples [lo, hi) as the line format POST /ingest takes.
func (in *input) text(buf []byte, lo, hi int) []byte {
	buf = buf[:0]
	for _, t := range in.tuples[lo:hi] {
		buf = strconv.AppendInt(buf, t.TS, 10)
		buf = append(buf, ' ')
		buf = append(buf, in.names[t.Src]...)
		buf = append(buf, ' ')
		buf = append(buf, in.names[t.Dst]...)
		buf = append(buf, ' ')
		buf = append(buf, in.labels[t.Label]...)
		if t.Op == stream.Delete {
			buf = append(buf, " -"...)
		}
		buf = append(buf, '\n')
	}
	return buf
}

func compileAll(texts []string) ([]*streamrpq.Query, error) {
	out := make([]*streamrpq.Query, len(texts))
	for i, src := range texts {
		q, err := streamrpq.Compile(src)
		if err != nil {
			return nil, fmt.Errorf("query %q: %w", src, err)
		}
		out[i] = q
	}
	return out, nil
}

// newEvaluator constructs the workload's evaluator through the facade
// only. dir, when non-empty, enables persistence the way rpqserve does.
func (s spec) newEvaluator(queries []string, dir string) (*streamrpq.MultiEvaluator, error) {
	qs, err := compileAll(queries)
	if err != nil {
		return nil, err
	}
	ev, err := streamrpq.NewMultiEvaluator(s.window, s.slide, qs...)
	if err != nil {
		return nil, err
	}
	configure := func() error {
		if s.shards > 0 {
			if err := ev.WithWriters(s.writers); err != nil {
				return err
			}
			if err := ev.WithShards(s.shards); err != nil {
				return err
			}
		}
		if s.dynamic {
			if err := ev.EnableDynamicQueries(); err != nil {
				return err
			}
		}
		if dir != "" {
			return ev.WithPersistence(dir, streamrpq.CheckpointEvery(checkpointEvery))
		}
		return nil
	}
	if err := configure(); err != nil {
		ev.Close()
		return nil, err
	}
	return ev, nil
}

// checkpointEvery is the automatic checkpoint interval (batches) of
// every persistent evaluator the benchmark builds.
const checkpointEvery = 500
