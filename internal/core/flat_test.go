package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"streamrpq/internal/stream"
	"streamrpq/internal/window"
)

// The flat tables of Δ maintenance — the key index of treeStore and the
// inverted index's table of sorted entry rows — against Go maps as the
// model. One op stream drives both; every structure is compared with its
// model over its whole universe after every step.

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
	flatPut = iota // alloc / add
	flatGet
	flatDel // release / drop
)

// flatSeq encodes one op per idx, as the byte pairs runFlatOps decodes.
// The spare bits of both bytes name the entry an index op adds or drops
// in the row of flatVerts[idx]: the kind's (ent<<2) its tree (ent&15)
// and state (ent>>4), the index's (slot+1)<<6 its slot, from noSlot to 2.
func flatSeq(kind int, idxs ...int) []byte {
	var out []byte
	for _, i := range idxs {
		out = append(out, byte(kind), byte(i))
	}
	return out
}

// flatEnts puts (or, with flatDel, drops) each entry into the inverted-
// index row of universe index idx, all at slot.
func flatEnts(kind, idx, slot int, ents ...int) []byte {
	var out []byte
	for _, en := range ents {
		out = append(out, flatSeq(kind|en<<2, idx|(slot+1)<<6)...)
	}
	return out
}

// flatNever is a tree id no op names.
const flatNever = int32(16)

// flatSeeds is the seed corpus; each entry names the case it is there
// for. Universe indices 1–10 share the last bucket of an 8-bucket table,
// 11–20 of a 16-bucket one.
var flatSeeds = map[string][]byte{
	"zero key": slices.Concat(
		flatSeq(flatGet, 0), flatSeq(flatPut, 0), flatSeq(flatGet, 0),
		flatSeq(flatDel, 0), flatSeq(flatGet, 0), flatSeq(flatPut, 0)),
	"cluster wraps past the end": slices.Concat(
		flatSeq(flatPut, 1, 2, 3), flatSeq(flatGet, 1, 2, 3, 4)),
	"backward shift across the wrap": slices.Concat(
		flatSeq(flatPut, 1, 2, 3, 50), flatSeq(flatDel, 1), flatSeq(flatGet, 2, 3, 50),
		flatSeq(flatDel, 2), flatSeq(flatGet, 3), flatSeq(flatPut, 1), flatSeq(flatDel, 3, 1, 50)),
	"grow during a cluster": slices.Concat(
		flatSeq(flatPut, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10), flatSeq(flatDel, 5, 1, 9),
		flatSeq(flatPut, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20), flatSeq(flatDel, 11, 2, 20)),
	"delete to empty then reuse": slices.Concat(
		flatSeq(flatPut, 30, 31, 32, 33, 1, 2), flatSeq(flatDel, 30, 31, 32, 33, 1, 2),
		flatSeq(flatPut, 2, 33, 40, 41), flatSeq(flatDel, 2, 33, 40, 41)),
	"slot reuse after release": slices.Concat(
		flatSeq(flatPut, 40, 41, 42), flatSeq(flatDel, 41), flatSeq(flatPut, 43),
		flatSeq(flatGet, 41, 43), flatSeq(flatDel, 43), flatSeq(flatPut, 41), flatSeq(flatGet, 43, 41)),
	"long row empties, parks and is taken again": slices.Concat(
		flatEnts(flatPut, 5, -1, 9, 3, 40, 0, 63, 17, 8, 21, 2, 33), flatEnts(flatPut, 1, -1, 4),
		flatEnts(flatDel, 5, -1, 0, 63, 9, 3, 40, 17, 8, 21, 2, 33), flatEnts(flatPut, 6, -1, 12, 1),
		flatEnts(flatPut, 5, -1, 7), flatEnts(flatDel, 1, -1, 4), flatEnts(flatPut, 2, -1, 4, 5)),
	"one state at several slots": slices.Concat(
		flatEnts(flatPut, 9, 2, 17, 1, 33), flatEnts(flatPut, 9, -1, 17, 33), flatEnts(flatPut, 9, 0, 17, 1),
		flatEnts(flatDel, 9, 1, 17, 33), flatEnts(flatDel, 9, -1, 17), flatEnts(flatDel, 9, 2, 17, 1, 33),
		flatEnts(flatDel, 9, 0, 1, 17), flatEnts(flatDel, 9, -1, 33)),
}

// runFlatOps applies the op stream to the two structures and their
// models. The op kind's fourth value reads as flatGet.
func runFlatOps(t testing.TB, ops []byte) {
	var ns treeStore
	ns.grow(nil) // as rootedTree does before the first lookup
	slots := map[nodeKey]int32{}
	var ix invIndex
	rows := map[stream.VertexID][]invEnt{} // sorted by compareEnts

	for step := 0; step+1 < len(ops); step += 2 {
		kind, idx := int(ops[step]&3), int(ops[step+1]&63)
		key, v := flatKeys[idx], flatVerts[idx]
		// An index op adds or drops, in v's row, the entry the op's spare
		// bits name.
		en := invEnt{
			tree:  int32(ops[step] >> 2 & 15),
			state: int32(ops[step] >> 6),
			slot:  int32(ops[step+1]>>6) - 1,
		}

		switch kind {
		case flatPut:
			if _, ok := slots[key]; !ok {
				slot := ns.alloc(key, int64(step), rootSlot, nil)
				for k, s := range slots {
					if s == slot {
						t.Fatalf("step %d: alloc handed out slot %d, still live under %v", step, slot, k)
					}
				}
				slots[key] = slot
			}
			for range 2 { // idempotent
				ix.add(v, en.tree, en.state, en.slot)
			}
			if i, found := slices.BinarySearchFunc(rows[v], en, compareEnts); !found {
				rows[v] = slices.Insert(rows[v], i, en)
			}
		case flatDel:
			if slot, ok := slots[key]; ok {
				ns.release(slot)
				delete(slots, key)
			}
			for range 2 { // the second drops an absent entry: a no-op
				ix.drop(v, en.tree, en.state, en.slot)
			}
			if i, found := slices.BinarySearchFunc(rows[v], en, compareEnts); found {
				if rows[v] = slices.Delete(rows[v], i, i+1); len(rows[v]) == 0 {
					delete(rows, v)
				}
			}
		}

		// Everything the structures can be asked, against the models.
		err := checkKeyTable(&ns)
		if err == nil {
			err = checkFreeList(&ns.slotStore, len(ns.nodes)-len(slots))
		}
		if err != nil || ns.size() != len(slots) {
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
		if err := checkInvIndex(&ix); err != nil || ix.n != len(rows) {
			t.Fatalf("step %d: %d rows, the model %d: %v", step, ix.n, len(rows), err)
		}
		for _, u := range flatVerts {
			if got := ix.row(u); !slices.Equal(got, rows[u]) {
				t.Fatalf("step %d: row %d = %v, want %v", step, u, got, rows[u])
			}
			var ids []int32
			for r := range flatNever + 1 {
				var want []invEnt
				for _, en := range rows[u] {
					if en.tree == r {
						want = append(want, en)
					}
				}
				if got := ix.of(u, r); !slices.Equal(got, want) {
					t.Fatalf("step %d: of(%d, %d) = %v, want %v", step, u, r, got, want)
				}
				if len(want) > 0 {
					ids = append(ids, r)
				}
			}
			if got := ix.appendTrees(u, nil); !slices.Equal(got, ids) {
				t.Fatalf("step %d: trees of %d = %v, want %v", step, u, got, ids)
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
		ns.grow(nil)
		var ix invIndex
		for _, i := range []int{1, 2, 3} {
			ns.alloc(flatKeys[i], 0, rootSlot, nil)
			ix.add(flatVerts[i], 0, 0, rootSlot)
		}
		last := len(ns.buckets) - 1
		if ns.buckets[last] == 0 || ns.buckets[0] == 0 || ns.buckets[1] == 0 || ns.buckets[2] != 0 {
			t.Fatalf("key cluster does not wrap: %v", ns.buckets)
		}
		if ix.rows[last].ents == nil || ix.rows[0].ents == nil || ix.rows[1].ents == nil || ix.rows[2].ents != nil {
			t.Fatalf("index cluster does not wrap: %+v", ix.rows)
		}
		ns.release(ns.lookup(flatKeys[1])) // shifts the two wrapped entries back
		ix.drop(flatVerts[1], 0, 0, rootSlot)
		if ns.buckets[last] == 0 || ns.buckets[0] == 0 || ns.buckets[1] != 0 {
			t.Fatalf("key cluster after backward shift: %v", ns.buckets)
		}
		if ix.rows[last].ents == nil || ix.rows[0].ents == nil || ix.rows[1].ents != nil {
			t.Fatalf("index cluster after backward shift: %+v", ix.rows)
		}
	})
	// An emptied row parks its array and the next new row takes the
	// largest one parked (TestRAPQIndexReentryAllocs pins the allocations).
	t.Run("parked rows", func(t *testing.T) {
		var ix invIndex
		for r := range int32(10) {
			ix.add(1, r, 0, rootSlot)
		}
		ix.add(2, 0, 0, rootSlot)
		long := cap(ix.row(1))
		ix.drop(2, 0, 0, rootSlot)
		for r := range int32(10) {
			ix.drop(1, r, 0, rootSlot)
		}
		ix.add(3, 7, 1, noSlot)
		if got := cap(ix.row(3)); got != long {
			t.Fatalf("a new row took an array of capacity %d, the largest parked has %d", got, long)
		}
	})
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(22))
		for trial := 0; trial < 20; trial++ {
			ops := make([]byte, 2*600)
			// Puts outnumber deletes in the first half and deletes win in
			// the second: grow through every size, then drain.
			for i := 0; i < len(ops); i += 2 {
				kind := []int{flatPut, flatPut, flatGet, flatDel}[rng.Intn(4)]
				if rng.Intn(3) == 0 {
					kind = flatPut
					if i > len(ops)/2 {
						kind = flatDel
					}
				}
				// Entries over 8 trees, 4 states and 4 slots.
				ops[i], ops[i+1] = byte(kind|rng.Intn(8)<<2|rng.Intn(4)<<6), byte(rng.Intn(256))
			}
			runFlatOps(t, ops)
		}
	})
}

// TestInvIndexTracksLiveTrees: the inverted index is sized by the
// engine's trees, not by the stream's vertex-id space. 100 000 distinct
// vertices stream through a 300-tick window into an a/b query, so a few
// hundred of them are in a tree at any time; the index's bucket count
// must stay within 4 × the peak live row count (load ≤ ½, doubling). An
// index addressed by vertex id grows with the largest id instead.
func TestInvIndexTracksLiveTrees(t *testing.T) {
	a := bind(t, "a/b", "a", "b")
	e := NewRAPQ(a, window.Spec{Size: 300, Slide: 10}, WithSink(discardSink{}))
	const n = 100_000
	peak := 0
	for i := range stream.VertexID(n) {
		e.Process(stream.Tuple{TS: int64(i), Src: i, Dst: i + 1, Label: stream.LabelID(i % 2)})
		peak = max(peak, e.inv.n)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Results < n/2-1 || peak > 1000 || st.Trees > 200 {
		t.Fatalf("not a window sliding over the stream: peak %d rows, %+v", peak, st)
	}
	if len(e.inv.rows) > 4*peak {
		t.Fatalf("index holds %d buckets for a peak of %d rows", len(e.inv.rows), peak)
	}
	t.Logf("peak %d rows, %d buckets, %d rows at the end", peak, len(e.inv.rows), e.inv.n)
}

// TestSlotStoreFreeListModel runs random alloc/release sequences against
// a stack of released slots as the model. The intrusive free list must
// hand out exactly the slot the stack pops — LIFO reuse is what keeps
// tree shapes, InsertCalls and the checkpoint's node order independent
// of how the free slots are kept — and size, live and the free-chain
// check must agree with the model after every step.
func TestSlotStoreFreeListModel(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 20; trial++ {
		var ns slotStore
		var stack, live []int32 // the model: released slots (top last), live slots
		next := int32(0)        // slots created so far
		for step := 0; step < 400; step++ {
			// Allocations win in the first half and releases in the second:
			// grow, then drain to a long free list.
			if len(live) == 0 || (rng.Intn(3) != 0) == (step < 200) {
				want := next
				if n := len(stack); n > 0 {
					want, stack = stack[n-1], stack[:n-1]
				} else {
					next++
				}
				k, ts := nodeKey(step), int64(step)
				got := ns.alloc(k, ts, rootSlot, nil)
				if got != want {
					t.Fatalf("trial %d step %d: alloc = slot %d, the stack pops %d", trial, step, got, want)
				}
				if n := ns.nodes[got]; n != (node{key: k, ts: ts, parent: rootSlot, firstChild: -1, nextSib: -1, prevSib: -1}) {
					t.Fatalf("trial %d step %d: fresh node %+v", trial, step, n)
				}
				live = append(live, got)
			} else {
				i := rng.Intn(len(live))
				slot := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				ns.release(slot)
				stack = append(stack, slot)
			}
			if ns.size() != len(live) || len(ns.nodes) != int(next) {
				t.Fatalf("trial %d step %d: size %d of %d slots, model %d of %d", trial, step, ns.size(), len(ns.nodes), len(live), next)
			}
			for s := int32(0); s < next; s++ {
				if ns.live(s) == slices.Contains(stack, s) {
					t.Fatalf("trial %d step %d: live(%d) = %v", trial, step, s, ns.live(s))
				}
			}
			if err := checkFreeList(&ns, len(stack)); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
		}
	}
}

// TestTreeTableModel runs random tree creations, drops and lookups on an
// engine's tree table against a Go map from root to id and a stack of
// freed ids as the model. A new tree must take the id freed last (else
// the next one past the table's end), a dropped tree's slot must be zero,
// and rootTree and treeOf must agree with the map for every vertex of the
// universe after every step. Some trees also hold other roots as
// members, so a root's row outlives its tree and must stop naming it;
// checkTrees validates the index and the table after every step. The
// tree name sits in the row's padding: a row stays 32 bytes.
func TestTreeTableModel(t *testing.T) {
	if n := unsafe.Sizeof(invRow{}); n != 32 {
		t.Fatalf("an inverted-index row is %d bytes, want 32", n)
	}
	const universe = 24
	rng := rand.New(rand.NewSource(49))
	for trial := range 20 {
		e := NewRAPQ(bind(t, "a+", "a"), window.Spec{Size: 1, Slide: 1})
		ids := map[stream.VertexID]int32{} // the model: root -> tree id
		var freed []int32                  // released ids, top last
		next := int32(0)                   // ids handed out so far
		members := map[stream.VertexID][]int32{}
		for step := range 300 {
			v := stream.VertexID(rng.Intn(universe))
			switch rng.Intn(4) {
			case 0, 1: // ensure
				id, ok := ids[v]
				if !ok {
					if n := len(freed); n > 0 {
						id, freed = freed[n-1], freed[:n-1]
					} else {
						id, next = next, next+1
					}
					ids[v] = id
				}
				if tx := e.rootedTree(v); tx.id != id || tx.root != v {
					t.Fatalf("trial %d step %d: tree of %d has id %d, root %d; the model says id %d", trial, step, v, tx.id, tx.root, id)
				}
			case 2: // member: another root joins the tree of v in state 1
				tx := e.treeOf(v)
				w := stream.VertexID(rng.Intn(universe))
				if tx == nil || tx.ns.lookup(mkNodeKey(w, 1)) >= 0 {
					break
				}
				slot := tx.ns.alloc(mkNodeKey(w, 1), 1, rootSlot, nil)
				tx.ns.attach(rootSlot, slot)
				e.inv.add(w, tx.id, 1, slot)
				members[v] = append(members[v], slot)
			case 3: // drop
				tx := e.treeOf(v)
				if tx == nil {
					break
				}
				for _, slot := range members[v] {
					e.remove(tx, slot)
				}
				delete(members, v)
				id := tx.id
				e.dropIfRootOnly(tx)
				if !reflect.ValueOf(e.trees[id]).IsZero() {
					t.Fatalf("trial %d step %d: dropped tree %d left %+v", trial, step, id, e.trees[id])
				}
				freed = append(freed, ids[v])
				delete(ids, v)
			}
			if err := e.checkTrees(); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			if len(e.trees) != int(next) || !slices.Equal(e.freeIDs, freed) || e.Stats().Trees != len(ids) {
				t.Fatalf("trial %d step %d: %d slots, free %v, %d trees; the model: %d, %v, %d",
					trial, step, len(e.trees), e.freeIDs, e.Stats().Trees, next, freed, len(ids))
			}
			for u := range stream.VertexID(universe) {
				id, ok := ids[u]
				if !ok {
					id = -1
				}
				if got := e.inv.rootTree(u); got != id || (e.treeOf(u) == nil) != !ok {
					t.Fatalf("trial %d step %d: rootTree(%d) = %d, want %d", trial, step, u, got, id)
				}
			}
		}
	}
}

// FuzzFlatTable lets the fuzzer look for an op stream the tables and
// their models disagree on. Plain `go test` runs the seed corpus.
func FuzzFlatTable(f *testing.F) {
	for _, ops := range flatSeeds {
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) { runFlatOps(t, ops) })
}
