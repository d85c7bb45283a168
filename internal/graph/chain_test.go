package graph

import (
	"testing"

	"streamrpq/internal/stream"
)

// TestLongVersionChainPerEpochVisibility: one edge refreshed at many
// consecutive epochs of one batch; every epoch sees exactly its own
// timestamp, every refresh after the first step keeps the version it
// supersedes (19 in the chain, none pruned inside the batch), and
// EndBatch drops the whole chain.
func TestLongVersionChainPerEpochVisibility(t *testing.T) {
	g := New()
	g.BeginBatch()
	var epochs []Epoch
	for i := 0; i < 20; i++ {
		epochs = append(epochs, g.AdvanceEpoch())
		g.Insert(1, 2, 0, int64(100+i))
	}
	for i, e := range epochs {
		if ts, ok := g.TSAt(e, stream.EdgeKey{Src: 1, Dst: 2, Label: 0}); !ok || ts != int64(100+i) {
			t.Fatalf("epoch %d: ts=%d ok=%v, want %d", e, ts, ok, 100+i)
		}
	}
	if dv := g.DeadVersions(); dv != 19 {
		t.Fatalf("DeadVersions = %d, want 19", dv)
	}
	g.EndBatch()
	if dv := g.DeadVersions(); dv != 0 {
		t.Fatalf("DeadVersions = %d after EndBatch", dv)
	}
	if ts, ok := g.TS(stream.EdgeKey{Src: 1, Dst: 2, Label: 0}); !ok || ts != 119 {
		t.Fatalf("final ts=%d ok=%v", ts, ok)
	}
}
