package core

import (
	"sort"

	"streamrpq/internal/automaton"
)

// RelevanceIndex precomputes, per label id, which member groups have at
// least one automaton transition on that label — the registration-time
// inversion of Bound.Relevant. On the hot path a tuple dispatches only
// to the groups in its label's list instead of probing every member,
// and the list is pre-ordered by pattern-visible selectivity (fewest
// relevant labels first, registration order as the tie-break), so the
// most selective automata run first. Lookup is a slice index: zero
// allocations, zero branches beyond the bounds check.
//
// The index is immutable after Build; coordinators rebuild it on
// membership changes (registration, removal, restore), which happen
// between tuples/batches.
type RelevanceIndex struct {
	byLabel [][]int32 // label id -> group positions, selectivity-ordered
}

// BuildRelevanceIndex builds the index over the groups' bound automata.
// tiebreak[i] orders groups with equal selectivity (ascending); pass
// each group's first subscriber registration index to keep dispatch
// order deterministic across runs and restores.
func BuildRelevanceIndex(bounds []*automaton.Bound, tiebreak []int) RelevanceIndex {
	width := 0
	for _, b := range bounds {
		if len(b.ByLabel) > width {
			width = len(b.ByLabel)
		}
	}
	order := make([]int, len(bounds))
	counts := make([]int, len(bounds))
	for i, b := range bounds {
		order[i] = i
		counts[i] = b.RelevantLabelCount()
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if counts[a] != counts[b] {
			return counts[a] < counts[b]
		}
		return tiebreak[a] < tiebreak[b]
	})
	byLabel := make([][]int32, width)
	for _, p := range order {
		b := bounds[p]
		for l := range b.ByLabel {
			if len(b.ByLabel[l]) > 0 {
				byLabel[l] = append(byLabel[l], int32(p))
			}
		}
	}
	return RelevanceIndex{byLabel: byLabel}
}

// Groups returns the positions of the groups that can step on the
// label, most selective first. The returned slice is shared — callers
// must not mutate it. Labels outside the indexed space return nil.
func (ri *RelevanceIndex) Groups(label int) []int32 {
	if label < 0 || label >= len(ri.byLabel) {
		return nil
	}
	return ri.byLabel[label]
}
