package core

import "streamrpq/internal/automaton"

// RelevanceIndex precomputes, per label id, which member groups have at
// least one automaton transition on that label — the registration-time
// inversion of Bound.Relevant. On the hot path a tuple dispatches only
// to the groups in its label's list instead of probing every member.
// Lookup is a slice index: zero allocations, zero branches beyond the
// bounds check.
//
// The index is immutable after Build; coordinators rebuild it on
// membership changes (registration, removal, restore), which happen
// between tuples/batches.
type RelevanceIndex struct {
	byLabel [][]int32 // label id -> group positions, ascending
}

// BuildRelevanceIndex builds the index over the groups' bound automata.
func BuildRelevanceIndex(bounds []*automaton.Bound) RelevanceIndex {
	width := 0
	for _, b := range bounds {
		if len(b.ByLabel) > width {
			width = len(b.ByLabel)
		}
	}
	byLabel := make([][]int32, width)
	for p, b := range bounds {
		for l := range b.ByLabel {
			if len(b.ByLabel[l]) > 0 {
				byLabel[l] = append(byLabel[l], int32(p))
			}
		}
	}
	return RelevanceIndex{byLabel: byLabel}
}

// Groups returns the positions of the groups that can step on the
// label, in position order. The returned slice is shared — callers
// must not mutate it. Labels outside the indexed space return nil.
func (ri *RelevanceIndex) Groups(label int) []int32 {
	if label < 0 || label >= len(ri.byLabel) {
		return nil
	}
	return ri.byLabel[label]
}
