package streamrpq

import (
	"reflect"
	"testing"
)

// collectBatches drains a stream through IngestBatch and returns the
// full grouped result sequence.
func collectBatches(t *testing.T, m *MultiEvaluator, stream []Tuple, batch int) []BatchResult {
	t.Helper()
	var out []BatchResult
	for i := 0; i < len(stream); i += batch {
		end := min(i+batch, len(stream))
		rs, err := m.IngestBatch(stream[i:end])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rs...)
	}
	return out
}

// TestWithShardsAgrees: at shard counts 1/2/8 × batch sizes 7/37 the
// IngestBatch result sequence must be byte-identical to the default
// one-shard evaluator's at the same batch size.
func TestWithShardsAgrees(t *testing.T) {
	stream := shardStream(77, 800)
	for _, batch := range []int{7, 37} {
		seq, err := NewMultiEvaluator(25, 5, shardQueries()...)
		if err != nil {
			t.Fatal(err)
		}
		want := collectBatches(t, seq, stream, batch)
		seq.Close()
		if len(want) == 0 {
			t.Fatal("no results; test is vacuous")
		}
		for _, shards := range []int{1, 2, 8} {
			m, err := NewMultiEvaluator(25, 5, shardQueries()...)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.WithShards(shards); err != nil {
				t.Fatal(err)
			}
			got := collectBatches(t, m, stream, batch)
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("shards=%d batch=%d: diverges from the default evaluator (%d vs %d result groups)",
					shards, batch, len(got), len(want))
			}
		}
	}
}

// TestWithPipelineDepthValidation covers the guard rails of the
// schedule's configuration: a default evaluator runs one shard on the
// caller's goroutine, a zero shard count is refused, and a refused
// reconfiguration after the first tuple leaves the evaluator as it was.
// The name is kept from the facade's former pipeline-depth option, whose
// guards WithShards now carries alone.
func TestWithPipelineDepthValidation(t *testing.T) {
	m, err := NewMultiEvaluator(20, 4, shardQueries()...)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.WithShards(0); err == nil {
		t.Fatal("zero shard count accepted")
	}
	if m.NumShards() != 1 {
		t.Fatalf("default evaluator runs %d shards, want 1", m.NumShards())
	}
	if _, err := m.Ingest(Tuple{TS: 1, Src: "x", Dst: "y", Label: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := m.WithShards(2); err == nil {
		t.Fatal("WithShards after processing started accepted")
	}
	if m.NumShards() != 1 {
		t.Fatalf("refused reconfiguration left %d shards, want 1", m.NumShards())
	}
	if _, err := m.Ingest(Tuple{TS: 2, Src: "y", Dst: "z", Label: "a"}); err != nil {
		t.Fatalf("evaluator unusable after a refused reconfiguration: %v", err)
	}
}

// TestWithWritersKeepsSchedule: the deprecated WithWriters rejects
// n <= 0 and otherwise changes nothing: the batch's one match is
// attributed to the tuple that completed it, exactly as in the default
// evaluator.
func TestWithWritersKeepsSchedule(t *testing.T) {
	batch := []Tuple{{TS: 1, Src: "x", Dst: "y", Label: "a"}, {TS: 1, Src: "y", Dst: "z", Label: "b"}}
	run := func(writers int) []BatchResult {
		m, err := NewMultiEvaluator(10, 1, MustCompile("a/b"))
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		if writers > 0 {
			if err := m.WithWriters(writers); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.WithWriters(0); err == nil {
			t.Fatal("zero writer count accepted")
		}
		brs, err := m.IngestBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		return brs
	}
	want := run(0)
	if len(want) != 1 || want[0].Tuple != 1 || len(want[0].Matches) != 1 {
		t.Fatalf("default evaluator: %+v, want one match at tuple 1", want)
	}
	if got := run(2); !reflect.DeepEqual(want, got) {
		t.Fatalf("WithWriters(2) changed the batch results:\ngot  %+v\nwant %+v", got, want)
	}
}
