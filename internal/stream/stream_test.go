package stream

import (
	"io"
	"strings"
	"testing"
)

func TestDict(t *testing.T) {
	d := NewDict()
	if d.Len() != 0 {
		t.Fatal("new dict not empty")
	}
	a := d.ID("alpha")
	b := d.ID("beta")
	if a != 0 || b != 1 {
		t.Fatalf("ids = %d,%d, want 0,1", a, b)
	}
	if d.ID("alpha") != a {
		t.Fatal("re-intern changed id")
	}
	if got := d.Name(a); got != "alpha" {
		t.Fatalf("Name(%d) = %q", a, got)
	}
	if got := d.Name(99); got != "" {
		t.Fatalf("Name(99) = %q, want empty", got)
	}
	if _, ok := d.Lookup("gamma"); ok {
		t.Fatal("Lookup of unseen name succeeded")
	}
	if id, ok := d.Lookup("beta"); !ok || id != b {
		t.Fatalf("Lookup(beta) = %d,%v", id, ok)
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
}

func TestReaderBasic(t *testing.T) {
	input := `
# comment line
10 u v follows
11 v w mentions +
12 u v follows -

13 w u follows
`
	r := NewReader(strings.NewReader(input), NewDict(), NewDict())
	tuples, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 4 {
		t.Fatalf("read %d tuples, want 4", len(tuples))
	}
	if tuples[0].TS != 10 || tuples[0].Op != Insert {
		t.Errorf("tuple 0 = %v", tuples[0])
	}
	if tuples[2].Op != Delete {
		t.Errorf("tuple 2 op = %v, want delete", tuples[2].Op)
	}
	// Dictionary encoding must be consistent: u appears as src of
	// tuples 0, 2 and dst of tuple 3.
	if tuples[0].Src != tuples[2].Src || tuples[0].Src != tuples[3].Dst {
		t.Error("vertex ids inconsistent across tuples")
	}
	if tuples[0].Label != tuples[2].Label || tuples[0].Label != tuples[3].Label {
		t.Error("label ids inconsistent across tuples")
	}
	if tuples[0].Label == tuples[1].Label {
		t.Error("distinct labels share an id")
	}
}

func TestReaderErrors(t *testing.T) {
	cases := []string{
		"abc u v follows",  // bad timestamp
		"10 u v",           // too few fields
		"10 u v l x y",     // too many fields
		"10 u v follows *", // bad op
	}
	for _, in := range cases {
		r := NewReader(strings.NewReader(in), NewDict(), NewDict())
		if _, err := r.Read(); err == nil || err == io.EOF {
			t.Errorf("input %q: want parse error, got %v", in, err)
		}
	}
}

func TestTupleString(t *testing.T) {
	tp := Tuple{TS: 5, Src: 1, Dst: 2, Label: 3, Op: Delete}
	if s := tp.String(); !strings.Contains(s, "-") || !strings.Contains(s, "5") {
		t.Errorf("String() = %q", s)
	}
	if Insert.String() != "+" || Delete.String() != "-" {
		t.Error("op strings wrong")
	}
}

func TestEdgeKey(t *testing.T) {
	tp := Tuple{TS: 5, Src: 1, Dst: 2, Label: 3}
	k := tp.Key()
	if k.Src != 1 || k.Dst != 2 || k.Label != 3 {
		t.Errorf("Key() = %+v", k)
	}
}
