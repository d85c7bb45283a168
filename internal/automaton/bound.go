package automaton

// NoState marks a missing transition in a Bound automaton.
const NoState = int32(-1)

// Transition is one DFA transition s --label--> t with the label left
// implicit (transitions are grouped per label in Bound.ByLabel).
type Transition struct {
	From int32
	To   int32
}

// Bound is a DFA whose transitions have been bound to a dense label-id
// space, giving O(1) lookups on the hot path of the streaming engines.
// Labels outside the query alphabet map to no transitions at all, which
// lets the engines drop irrelevant tuples immediately (the paper's
// "discard tuples whose label is not in ΣQ").
type Bound struct {
	K       int            // number of DFA states
	Start   int32          // initial state s0
	Final   []bool         // Final[s] reports s ∈ F
	Trans   [][]int32      // Trans[s][labelID] → next state, NoState if absent
	ByLabel [][]Transition // ByLabel[labelID] → all (s,t) with δ(s,label)=t
	Cont    [][]bool       // suffix-language containment: Cont[s][t] == ([s] ⊇ [t])
	HasCont bool           // suffix-language containment property holds (Def. 15)
}

// Bind converts the string-labeled DFA into a Bound automaton.
// labelID maps label strings to dense ids in [0, numLabels); labels of
// the DFA alphabet that the mapper does not know (returns <0) are
// unreachable in the bound graph and their transitions are dropped.
func (d *DFA) Bind(labelID func(string) int, numLabels int) *Bound {
	k := d.NumStates()
	b := &Bound{
		K:       k,
		Start:   int32(d.Start),
		Final:   append([]bool(nil), d.Final...),
		Trans:   make([][]int32, k),
		ByLabel: make([][]Transition, numLabels),
		Cont:    d.Containment(),
		HasCont: d.HasContainmentProperty(),
	}
	for s := 0; s < k; s++ {
		row := make([]int32, numLabels)
		for i := range row {
			row[i] = NoState
		}
		b.Trans[s] = row
	}
	for s := 0; s < k; s++ {
		for l, t := range d.Trans[s] {
			id := labelID(l)
			if id < 0 || id >= numLabels {
				continue
			}
			b.Trans[s][id] = int32(t)
			b.ByLabel[id] = append(b.ByLabel[id], Transition{From: int32(s), To: int32(t)})
		}
	}
	return b
}

// Step returns δ(s, label) or NoState.
func (b *Bound) Step(s int32, label int) int32 {
	if label < 0 || label >= len(b.ByLabel) {
		return NoState
	}
	return b.Trans[s][label]
}

// Relevant reports whether any state has a transition on the label,
// i.e. whether a tuple carrying it can possibly affect results.
func (b *Bound) Relevant(label int) bool {
	return label >= 0 && label < len(b.ByLabel) && len(b.ByLabel[label]) > 0
}
