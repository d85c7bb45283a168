package automaton

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
)

// Canonical forms.
//
// Two RPQ expressions denote the same path language iff their minimal
// DFAs are isomorphic, and Minimize already renumbers states by a BFS
// from the start state over labels in sorted order — so isomorphic
// minimal DFAs are *literally identical* up to dead alphabet entries.
// CanonicalKey serializes exactly that structure (transitions only, so
// labels that survive parsing but reach no live transition do not
// perturb the key), which makes "same language" a string comparison and
// "shared Δ-index group" a map lookup at registration time.

// CanonicalKey returns a serialization of the DFA's canonical form:
// state count, start, final set, and the sorted transition triples
// after canonical BFS renumbering. Two DFAs have equal keys iff they
// accept the same language (assuming both are minimal; for non-minimal
// DFAs the key still identifies structural isomorphism of the reachable
// part).
func (d *DFA) CanonicalKey() string {
	c := d.canonicalized()
	var b strings.Builder
	fmt.Fprintf(&b, "k%d;s%d;f", c.NumStates(), c.Start)
	for s, f := range c.Final {
		if f {
			fmt.Fprintf(&b, "%d,", s)
		}
	}
	b.WriteByte(';')
	type triple struct {
		from int
		lab  string
		to   int
	}
	var ts []triple
	for s := range c.Trans {
		for l, t := range c.Trans[s] {
			ts = append(ts, triple{s, l, t})
		}
	}
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].from != ts[j].from {
			return ts[i].from < ts[j].from
		}
		if ts[i].lab != ts[j].lab {
			return ts[i].lab < ts[j].lab
		}
		return ts[i].to < ts[j].to
	})
	for _, t := range ts {
		fmt.Fprintf(&b, "%d-%s>%d;", t.from, t.lab, t.to)
	}
	return b.String()
}

// CanonicalHash returns a 64-bit FNV-1a hash of CanonicalKey, for
// compact fingerprint tables and logs. Equal languages hash equal;
// collisions are possible in principle, so sharing decisions compare
// the full key.
func (d *DFA) CanonicalHash() uint64 {
	h := fnv.New64a()
	h.Write([]byte(d.CanonicalKey()))
	return h.Sum64()
}

// canonicalized renumbers states by BFS from the start over labels in
// sorted order, keeping only states reachable from the start. For
// Minimize output this is the identity; it makes CanonicalKey safe on
// hand-built DFAs too.
func (d *DFA) canonicalized() *DFA {
	k := d.NumStates()
	remap := make([]int, k)
	for i := range remap {
		remap[i] = -1
	}
	order := make([]int, 0, k)
	remap[d.Start] = 0
	order = append(order, d.Start)
	labels := make([]string, 0, 8)
	for head := 0; head < len(order); head++ {
		s := order[head]
		labels = labels[:0]
		for l := range d.Trans[s] {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for _, l := range labels {
			t := d.Trans[s][l]
			if remap[t] < 0 {
				remap[t] = len(order)
				order = append(order, t)
			}
		}
	}
	out := &DFA{
		Alphabet: d.Alphabet,
		Start:    0,
		Final:    make([]bool, len(order)),
		Trans:    make([]map[string]int, len(order)),
	}
	for _, s := range order {
		ns := remap[s]
		out.Final[ns] = d.Final[s]
		row := make(map[string]int, len(d.Trans[s]))
		for l, t := range d.Trans[s] {
			row[l] = remap[t]
		}
		out.Trans[ns] = row
	}
	return out
}

// Fingerprint serializes the bound automaton's structure over the dense
// label-id space: state count, start, final set, and per label id the
// sorted transition pairs. Trailing label-space width does not enter
// the fingerprint — a bound automaton re-bound against a wider label
// dictionary has no transitions on the new ids, so it steps (and
// therefore emits) identically, and the two fingerprints match.
// Equal fingerprints ⇒ the engines driven by the two bounds produce
// byte-identical result streams on every input, which is the safety
// condition for evaluating them on one shared Δ-index tree set.
func (b *Bound) Fingerprint() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "k%d;s%d;f", b.K, b.Start)
	for s, f := range b.Final {
		if f {
			fmt.Fprintf(&sb, "%d,", s)
		}
	}
	sb.WriteByte(';')
	for id, trs := range b.ByLabel {
		if len(trs) == 0 {
			continue
		}
		sorted := append([]Transition(nil), trs...)
		sort.Slice(sorted, func(i, j int) bool {
			if sorted[i].From != sorted[j].From {
				return sorted[i].From < sorted[j].From
			}
			return sorted[i].To < sorted[j].To
		})
		fmt.Fprintf(&sb, "l%d:", id)
		for _, tr := range sorted {
			fmt.Fprintf(&sb, "%d>%d,", tr.From, tr.To)
		}
		sb.WriteByte(';')
	}
	// The containment matrix feeds the RSPQ arm; include it so bounds
	// that step identically but carry different containment metadata are
	// never conflated.
	if b.HasCont {
		sb.WriteString("c")
		for _, row := range b.Cont {
			for _, v := range row {
				if v {
					sb.WriteByte('1')
				} else {
					sb.WriteByte('0')
				}
			}
		}
	}
	return sb.String()
}
