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

// TestWithPipelineDepthAgrees: at shard counts 1/2/8 × pipeline depths
// 1/2/4 the IngestBatch result sequence must be byte-identical to the
// default inline evaluator's (one shard at depth 1 is the inline
// schedule itself).
func TestWithPipelineDepthAgrees(t *testing.T) {
	stream := shardStream(77, 800)

	seq, err := NewMultiEvaluator(25, 5, shardQueries()...)
	if err != nil {
		t.Fatal(err)
	}
	want := collectBatches(t, seq, stream, 37)
	seq.Close()
	if len(want) == 0 {
		t.Fatal("no results; test is vacuous")
	}

	for _, shards := range []int{1, 2, 8} {
		for _, depth := range []int{1, 2, 4} {
			m, err := NewMultiEvaluator(25, 5, shardQueries()...)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.WithPipelineDepth(depth); err != nil {
				t.Fatal(err)
			}
			if err := m.WithShards(shards); err != nil {
				t.Fatal(err)
			}
			if got := m.PipelineDepth(); got != depth {
				t.Fatalf("PipelineDepth = %d, want %d", got, depth)
			}
			got := collectBatches(t, m, stream, 37)
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("shards=%d depth=%d: diverges from the inline evaluator (%d vs %d result groups)",
					shards, depth, len(got), len(want))
			}
		}
	}
}

// TestWithPipelineDepthOrderIndependent: WithPipelineDepth composes
// with WithShards in either order.
func TestWithPipelineDepthOrderIndependent(t *testing.T) {
	stream := shardStream(13, 300)
	var ref []BatchResult
	for _, depthFirst := range []bool{true, false} {
		m, err := NewMultiEvaluator(20, 4, shardQueries()...)
		if err != nil {
			t.Fatal(err)
		}
		if depthFirst {
			if err := m.WithPipelineDepth(3); err != nil {
				t.Fatal(err)
			}
			if err := m.WithShards(2); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := m.WithShards(2); err != nil {
				t.Fatal(err)
			}
			if err := m.WithPipelineDepth(3); err != nil {
				t.Fatal(err)
			}
		}
		if d := m.PipelineDepth(); d != 3 {
			t.Fatalf("depthFirst=%v: PipelineDepth = %d, want 3", depthFirst, d)
		}
		got := collectBatches(t, m, stream, 29)
		m.Close()
		if ref == nil {
			ref = got
			continue
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatal("option order changed the result stream")
		}
	}
}

// TestWithPipelineDepthValidation covers the guard rails.
func TestWithPipelineDepthValidation(t *testing.T) {
	m, err := NewMultiEvaluator(20, 4, shardQueries()...)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.WithPipelineDepth(0); err == nil {
		t.Fatal("zero depth accepted")
	}
	if m.PipelineDepth() != 1 || !m.eng.Inline() {
		t.Fatalf("default evaluator reports depth %d (inline=%v), want the inline depth 1", m.PipelineDepth(), m.eng.Inline())
	}
	if _, err := m.Ingest(Tuple{TS: 1, Src: "x", Dst: "y", Label: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := m.WithPipelineDepth(2); err == nil {
		t.Fatal("WithPipelineDepth after processing started accepted")
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
