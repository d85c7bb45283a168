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

// TestWithPipelineDepthAgrees: the pipelined coordinator (depths 2 and
// 4) must produce the byte-identical IngestBatch result sequence of the
// barriered depth-1 one, at several shard counts, and every run must
// agree with the default inline evaluator's match multisets. (One shard
// at depth 1 is itself the inline schedule, whose tie-group attribution
// is tuple by tuple: it is held to the multisets only.)
func TestWithPipelineDepthAgrees(t *testing.T) {
	stream := shardStream(77, 800)

	seq, err := NewMultiEvaluator(25, 5, shardQueries()...)
	if err != nil {
		t.Fatal(err)
	}
	want := collectMulti(t, seq, stream)
	seq.Close()

	for _, shards := range []int{1, 2, 8} {
		var base []BatchResult
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
			inline := m.eng.Inline()
			got := collectBatches(t, m, stream, 37)
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			gotMulti := map[string]map[Match]int{}
			for _, br := range got {
				name := br.Query.String()
				if gotMulti[name] == nil {
					gotMulti[name] = map[Match]int{}
				}
				for _, match := range br.Matches {
					gotMulti[name][match]++
				}
			}
			if !reflect.DeepEqual(want, gotMulti) {
				t.Fatalf("shards=%d depth=%d: diverges from the inline evaluator", shards, depth)
			}
			switch {
			case inline:
			case base == nil:
				base = got
			case !reflect.DeepEqual(base, got):
				t.Fatalf("shards=%d depth=%d: pipelined results diverge from the shallowest pipelined run", shards, depth)
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
