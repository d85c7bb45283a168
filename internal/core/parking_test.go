package core

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// TestParkingModel drives a parking with random takes, parks, growths and
// releases against a model of its class lists, which records each
// parked array by the address of its first element: an array is taken
// from the class of its capacity, the one parked last first, a taken
// node array is empty at its class's capacity, a taken key table is
// zeroed at its full length, a growth keeps the nodes and parks what it
// outgrew, a dropped tree parks both its arrays, and a release leaves
// nothing parked. A nil parking parks nothing and grows node arrays as
// append does.
func TestParkingModel(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	p := &Parking{}
	var nodesModel [32][]*node
	var bucketsModel [32][]*int32
	var nodes [][]node
	var tables [][]int32

	class := func(n int) int { return bits.TrailingZeros(uint(n)) }
	// taken checks that the array whose first element is at first came
	// from the class's list if the model has one there, and pops it.
	taken := func(step int, l *[]*node, first *node) {
		if n := len(*l); n > 0 {
			if (*l)[n-1] != first {
				t.Fatalf("step %d: a take did not return the array parked last", step)
			}
			*l = (*l)[:n-1]
		}
	}
	takenTable := func(step int, l *[]*int32, first *int32) {
		if n := len(*l); n > 0 {
			if (*l)[n-1] != first {
				t.Fatalf("step %d: a take did not return the table parked last", step)
			}
			*l = (*l)[:n-1]
		}
	}
	// fill gives every slot of a a node, as a tree's use leaves it.
	fill := func(a []node) []node {
		for len(a) < cap(a) {
			a = append(a, node{key: nodeKey(rng.Uint64()), ts: rng.Int63(), parent: int32(len(a))})
		}
		return a
	}
	count := func() int {
		n := 0
		for c := range nodesModel {
			n += len(nodesModel[c]) + len(bucketsModel[c])
		}
		return n
	}

	for step := range 4000 {
		switch op := rng.Intn(10); {
		case op < 2: // take a node array
			c := rng.Intn(6)
			a := p.nodes.take(1 << c)
			if len(a) != 0 || cap(a) != 1<<c {
				t.Fatalf("step %d: class %d gave a node array of len %d cap %d", step, c, len(a), cap(a))
			}
			taken(step, &nodesModel[c], &a[:1][0])
			nodes = append(nodes, fill(a))
		case op < 4 && len(nodes) > 0: // park a node array
			i := rng.Intn(len(nodes))
			a := nodes[i]
			nodes = slices.Delete(nodes, i, i+1)
			p.nodes.park(a)
			nodesModel[class(cap(a))] = append(nodesModel[class(cap(a))], &a[0])
		case op < 6 && len(nodes) > 0: // grow a node array
			i := rng.Intn(len(nodes))
			old := nodes[i]
			grown := p.grownNodes(old)
			if cap(grown) != 2*cap(old) || !slices.Equal(grown, old) {
				t.Fatalf("step %d: cap %d grew to cap %d, nodes kept: %v", step, cap(old), cap(grown), slices.Equal(grown, old))
			}
			taken(step, &nodesModel[class(cap(grown))], &grown[0])
			nodesModel[class(cap(old))] = append(nodesModel[class(cap(old))], &old[0])
			nodes[i] = fill(grown)
		case op < 9: // grow a key table, from nothing or from one held
			var old []int32
			if len(tables) > 0 && rng.Intn(3) > 0 {
				i := rng.Intn(len(tables))
				old = tables[i]
				tables = slices.Delete(tables, i, i+1)
			}
			b := p.grownBuckets(old)
			if n := max(minBuckets, 2*len(old)); len(b) != n || cap(b) != n {
				t.Fatalf("step %d: a table of %d grew to len %d cap %d", step, len(old), len(b), cap(b))
			}
			if i := slices.IndexFunc(b, func(v int32) bool { return v != 0 }); i >= 0 {
				t.Fatalf("step %d: a taken table holds %d at bucket %d", step, b[i], i)
			}
			takenTable(step, &bucketsModel[class(len(b))], &b[0])
			if old != nil {
				bucketsModel[class(len(old))] = append(bucketsModel[class(len(old))], &old[0])
			}
			for i := range b {
				b[i] = rng.Int31n(100) + 1
			}
			tables = append(tables, b)
		default: // a batch boundary
			p.Release()
			nodesModel, bucketsModel = [32][]*node{}, [32][]*int32{}
		}
		if got, want := p.Parked(), count(); got != want {
			t.Fatalf("step %d: %d arrays parked, the model has %d", step, got, want)
		}
	}

	var ns treeStore
	ns.grow(p)
	ns.slotStore.alloc(1, rootTS, rootSlot, p)
	before := p.Parked()
	p.drop(&ns)
	if p.Parked() != before+2 || ns.nodes != nil || ns.buckets != nil {
		t.Fatalf("a dropped tree parked %d arrays and kept %d nodes, %d buckets", p.Parked()-before, len(ns.nodes), len(ns.buckets))
	}
	p.Release()
	if p.Parked() != 0 {
		t.Fatalf("%d arrays parked after a release", p.Parked())
	}

	// Without a parking, arrays grow as append grows them: past 256
	// nodes that is less than doubling.
	var np *Parking
	for _, n := range []int{0, 1, 4, 512, 1000} {
		a := fill(make([]node, 0, n))
		want := cap(append(a, node{}))
		if got := np.grownNodes(a); len(got) != n || cap(got) != want || !slices.Equal(got, a) {
			t.Fatalf("a nil parking grew %d nodes to len %d cap %d, want cap %d", n, len(got), cap(got), want)
		}
	}
	if b := np.grownBuckets(make([]int32, 8)); len(b) != 16 {
		t.Fatalf("a nil parking grew a table of 8 to %d", len(b))
	}
	np.drop(&ns)
}
