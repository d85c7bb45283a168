package core

import (
	"math/rand"
	"slices"
	"testing"

	"streamrpq/internal/stream"
)

// The flat tables of Δ maintenance — the key index of treeStore, the
// per-vertex record table and the sorted rows of the inverted index —
// against Go maps as the model. One op stream drives all three; every
// structure is compared with its model over its whole universe after
// every step.

// flatKeys and flatVerts are the 64 keys and vertices the ops address: the zero
// key first, then for each table size the universe can reach 10 keys
// whose home is the last bucket at that size — put in a row they form a
// cluster that wraps past the end of the bucket array — then small
// consecutive ones.
var flatKeys, flatVerts = func() ([]nodeKey, []stream.VertexID) {
	keys, verts := []nodeKey{0}, []stream.VertexID{0}
	for _, n := range []int{8, 16, 32, 64} {
		shift := tableShift(n)
		for v, found := stream.VertexID(1), 0; found < 10; v++ {
			if k := mkNodeKey(v, int32(v%3)); uint64(k)*hashMul>>shift == uint64(n-1) {
				keys = append(keys, k)
				found++
			}
		}
		for v, found := stream.VertexID(1), 0; found < 10; v++ {
			if uint64(v)*hashMul>>shift == uint64(n-1) && !slices.Contains(verts, v) {
				verts = append(verts, v)
				found++
			}
		}
	}
	for v := stream.VertexID(1); len(keys) < 64; v++ {
		if k := mkNodeKey(v, 1); !slices.Contains(keys, k) {
			keys = append(keys, k)
		}
	}
	for v := stream.VertexID(1); len(verts) < 64; v++ {
		if !slices.Contains(verts, v) {
			verts = append(verts, v)
		}
	}
	return keys, verts
}()

const (
	flatPut = iota // alloc / inc / add
	flatGet
	flatDel        // release / dec / drop
	flatPutWitness // as flatPut; the vertex record also counts a witness
)

// flatSeq encodes one op per idx, as the byte pairs runFlatOps decodes.
func flatSeq(kind int, idxs ...int) []byte {
	var out []byte
	for _, i := range idxs {
		out = append(out, byte(kind), byte(i))
	}
	return out
}

// flatSeeds is the seed corpus; each entry names the case it is there
// for. Universe indices 1–10 share the last bucket of an 8-bucket table,
// 11–20 of a 16-bucket one.
var flatSeeds = map[string][]byte{
	"zero key": slices.Concat(
		flatSeq(flatGet, 0), flatSeq(flatPutWitness, 0), flatSeq(flatGet, 0),
		flatSeq(flatDel, 0), flatSeq(flatGet, 0), flatSeq(flatPut, 0)),
	"cluster wraps past the end": slices.Concat(
		flatSeq(flatPut, 1, 2, 3), flatSeq(flatGet, 1, 2, 3, 4)),
	"backward shift across the wrap": slices.Concat(
		flatSeq(flatPut, 1, 2, 3, 50), flatSeq(flatDel, 1), flatSeq(flatGet, 2, 3, 50),
		flatSeq(flatDel, 2), flatSeq(flatGet, 3), flatSeq(flatPut, 1), flatSeq(flatDel, 3, 1, 50)),
	"grow during a cluster": slices.Concat(
		flatSeq(flatPutWitness, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10), flatSeq(flatDel, 5, 1, 9),
		flatSeq(flatPut, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20), flatSeq(flatDel, 11, 2, 20)),
	"delete to empty then reuse": slices.Concat(
		flatSeq(flatPut, 30, 31, 32, 33, 1, 2), flatSeq(flatDel, 30, 31, 32, 33, 1, 2),
		flatSeq(flatPut, 2, 33, 40, 41), flatSeq(flatDel, 2, 33, 40, 41)),
	"slot reuse after release": slices.Concat(
		flatSeq(flatPut, 40, 41, 42), flatSeq(flatDel, 41), flatSeq(flatPut, 43),
		flatSeq(flatGet, 41, 43), flatSeq(flatDel, 43), flatSeq(flatPut, 41), flatSeq(flatGet, 43, 41)),
	"counts above one": slices.Concat(
		flatSeq(flatPutWitness, 7, 7, 7), flatSeq(flatPut, 7), flatSeq(flatDel, 7, 7, 7),
		flatSeq(flatGet, 7), flatSeq(flatDel, 7, 7)),
}

// runFlatOps applies the op stream to the three structures and their
// models.
func runFlatOps(t testing.TB, ops []byte) {
	var ns treeStore
	ns.grow() // as rootedTree does before the first lookup
	slots := map[nodeKey]int32{}
	var vt vertexTable
	census := map[stream.VertexID]vrec{}
	var ix invIndex
	rows := map[stream.VertexID][]stream.VertexID{}

	for step := 0; step+1 < len(ops); step += 2 {
		kind, idx := int(ops[step]&3), int(ops[step+1]&63)
		key, v := flatKeys[idx], flatVerts[idx]
		// The rows are few and addressed by the op's spare bits, so they
		// grow long: 64 roots over 4 rows.
		row := stream.VertexID(ops[step]>>2&3) * 9

		switch kind {
		case flatPut, flatPutWitness:
			if _, ok := slots[key]; !ok {
				slot := ns.alloc(key, int64(step), rootSlot)
				for k, s := range slots {
					if s == slot {
						t.Fatalf("step %d: alloc handed out slot %d, still live under %v", step, slot, k)
					}
				}
				slots[key] = slot
			}
			rec := census[v]
			rec.v = v
			rec.nodes++
			if kind == flatPutWitness {
				rec.support++
			}
			census[v] = rec
			if first := vt.inc(v, kind == flatPutWitness); first != (rec.nodes == 1) {
				t.Fatalf("step %d: inc(%d) first = %v at count %d", step, v, first, rec.nodes)
			}
			for range 2 { // idempotent
				ix.add(row, v)
			}
			if i, found := slices.BinarySearch(rows[row], v); !found {
				rows[row] = slices.Insert(rows[row], i, v)
			}
		case flatDel:
			if slot, ok := slots[key]; ok {
				ns.release(slot)
				delete(slots, key)
			}
			if rec, ok := census[v]; ok {
				witness := rec.support == rec.nodes // keep support ≤ nodes
				if witness {
					rec.support--
				}
				rec.nodes--
				if census[v] = rec; rec.nodes == 0 {
					delete(census, v)
				}
				if last := vt.dec(v, witness); last != (rec.nodes == 0) {
					t.Fatalf("step %d: dec(%d) last = %v at count %d", step, v, last, rec.nodes)
				}
			}
			for range 2 {
				ix.drop(row, v)
			}
			if i, found := slices.BinarySearch(rows[row], v); found {
				rows[row] = slices.Delete(rows[row], i, i+1)
			}
		}

		// Everything the structures can be asked, against the models.
		if err := checkKeyTable(&ns); err != nil || ns.size() != len(slots) {
			t.Fatalf("step %d: %d keys, %d live slots: %v", step, len(slots), ns.size(), err)
		}
		for _, k := range flatKeys {
			want, ok := slots[k]
			if !ok {
				want = -1
			}
			if got := ns.lookup(k); got != want {
				t.Fatalf("step %d: lookup(%v) = %d, want %d", step, k, got, want)
			}
		}
		if err := checkVertexTable(&vt, census); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for _, u := range flatVerts {
			if _, ok := census[u]; ok != (vt.find(u) != nil) {
				t.Fatalf("step %d: find(%d) disagrees with the model (present: %v)", step, u, ok)
			}
		}
		for r := stream.VertexID(0); r < 40; r++ {
			if got := ix.appendRoots(r, nil); !slices.Equal(got, rows[r]) {
				t.Fatalf("step %d: row %d = %v, want %v", step, r, got, rows[r])
			}
			for _, u := range flatVerts {
				if _, want := slices.BinarySearch(rows[r], u); ix.has(r, u) != want {
					t.Fatalf("step %d: has(%d, %d) = %v", step, r, u, !want)
				}
			}
		}
	}
}

// TestFlatTableModel runs the seed corpus of FuzzFlatTable, checks that
// the seeds still build the bucket layouts they are named for, and adds
// seeded random op streams long enough to grow the tables to the whole
// universe and shrink them back.
func TestFlatTableModel(t *testing.T) {
	for name, ops := range flatSeeds {
		t.Run(name, func(t *testing.T) { runFlatOps(t, ops) })
	}
	t.Run("seed layouts", func(t *testing.T) {
		var ns treeStore
		ns.grow()
		var vt vertexTable
		for _, i := range []int{1, 2, 3} {
			ns.alloc(flatKeys[i], 0, rootSlot)
			vt.inc(flatVerts[i], false)
		}
		last := len(ns.buckets) - 1
		if ns.buckets[last] == 0 || ns.buckets[0] == 0 || ns.buckets[1] == 0 || ns.buckets[2] != 0 {
			t.Fatalf("key cluster does not wrap: %v", ns.buckets)
		}
		if vt.recs[last].nodes == 0 || vt.recs[0].nodes == 0 || vt.recs[1].nodes == 0 || vt.recs[2].nodes != 0 {
			t.Fatalf("vertex cluster does not wrap: %+v", vt.recs)
		}
		ns.release(ns.lookup(flatKeys[1])) // shifts the two wrapped entries back
		vt.dec(flatVerts[1], false)
		if ns.buckets[last] == 0 || ns.buckets[0] == 0 || ns.buckets[1] != 0 {
			t.Fatalf("key cluster after backward shift: %v", ns.buckets)
		}
		if vt.recs[last].nodes == 0 || vt.recs[0].nodes == 0 || vt.recs[1].nodes != 0 {
			t.Fatalf("vertex cluster after backward shift: %+v", vt.recs)
		}
	})
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(22))
		for trial := 0; trial < 20; trial++ {
			ops := make([]byte, 2*600)
			// Puts outnumber deletes in the first half and deletes win in
			// the second: grow through every size, then drain.
			for i := 0; i < len(ops); i += 2 {
				kind := []int{flatPut, flatPutWitness, flatGet, flatDel}[rng.Intn(4)]
				if rng.Intn(3) == 0 {
					kind = flatPut
					if i > len(ops)/2 {
						kind = flatDel
					}
				}
				ops[i], ops[i+1] = byte(kind|rng.Intn(4)<<2), byte(rng.Intn(64))
			}
			runFlatOps(t, ops)
		}
	})
}

// FuzzFlatTable lets the fuzzer look for an op stream the tables and
// their models disagree on. Plain `go test` runs the seed corpus.
func FuzzFlatTable(f *testing.F) {
	for _, ops := range flatSeeds {
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) { runFlatOps(t, ops) })
}
