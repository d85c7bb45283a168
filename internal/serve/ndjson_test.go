package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// hostile holds every character class the JSON encoder treats
// specially: quote and backslash, the named and the numeric control
// escapes, DEL (verbatim), the HTML-escaped < > &, the line and
// paragraph separators, invalid UTF-8 (a stray continuation byte, a
// truncated sequence, an encoded surrogate, an overlong form), the
// replacement character itself, and valid multi-byte text.
var hostile = []string{
	"", "plain", `"quoted"`, `back\slash`, "<script>a&b</script>",
	"\b\f\n\r\t", "\x00\x01\x1f", "\x7f", "\xe2\x80\xa8\xe2\x80\xa9", "x\xe2\x80\xa8y",
	"\xff", "a\xc3", "\xed\xa0\x80", "\xc0\xaf", "\xef\xbf\xbd",
	"\xc3\xa9\xe4\xb8\xad\xf0\x9f\x98\x80", "v1-3-2", "(a/b)+|c*",
}

// recordTable is the table both tests run over: each hostile string in
// every string field, EOF records, the zero record (every omitempty
// field absent), extreme and negative numbers, and n generated records.
func recordTable(n int) []Record {
	var recs []Record
	for _, s := range hostile {
		recs = append(recs,
			Record{Token: s, Batch: 1, Tuple: 2, QueryID: 3, Query: s, From: s, To: s, TS: 4},
			Record{Token: s, EOF: true, Reason: s},
		)
	}
	recs = append(recs,
		Record{},
		Record{EOF: true, Token: "v1-9-3", Reason: "slow consumer"},
		Record{EOF: true, Token: "v1-0-0", Reason: "shutdown"},
		Record{Token: "v1-1-0", Batch: 1, Tuple: -1, QueryID: -7, TS: -42, Invalidated: true},
		Record{Token: "v1-18446744073709551615-0", Batch: math.MaxUint64, Tuple: math.MaxInt, QueryID: math.MinInt, TS: math.MinInt64},
		Record{Tuple: math.MinInt, TS: math.MaxInt64, Invalidated: true, EOF: true},
	)
	rng := rand.New(rand.NewSource(1))
	str := func() string {
		var b strings.Builder
		for k := rng.Intn(4); k > 0; k-- {
			b.WriteString(hostile[rng.Intn(len(hostile))])
		}
		return b.String()
	}
	for i := 0; i < n; i++ {
		recs = append(recs, Record{
			Token: str(), Batch: uint64(rng.Intn(3)) * rng.Uint64(), Tuple: rng.Intn(5) - 2, QueryID: rng.Intn(5) - 2,
			Query: str(), From: str(), To: str(), TS: rng.Int63() - rng.Int63(),
			Invalidated: rng.Intn(2) == 0, EOF: rng.Intn(4) == 0, Reason: str(),
		})
	}
	return recs
}

// checkRecordLine fails unless appendRecord writes exactly the bytes
// json.Encoder.Encode writes for r, the line's only raw newline is its
// last byte, and appendResult agrees wherever the token is a Seq's.
func checkRecordLine(t *testing.T, r Record) {
	t.Helper()
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(r); err != nil {
		t.Fatal(err)
	}
	got := appendRecord([]byte("prefix"), &r)
	if !bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[len("prefix"):], want.Bytes()) {
		t.Fatalf("record %+v:\nappender %q\nencoder  %q", r, got, want.Bytes())
	}
	if i := bytes.IndexByte(want.Bytes(), '\n'); i != want.Len()-1 {
		t.Fatalf("record %+v: raw newline at %d of a %d-byte line", r, i, want.Len())
	}
	if seq, err := ParseToken(r.Token); err == nil && seq.Token() == r.Token {
		if res := appendResult(nil, seq, &r); !bytes.Equal(res, want.Bytes()) {
			t.Fatalf("record %+v:\nappendResult %q\nencoder      %q", r, res, want.Bytes())
		}
	}
}

// TestRecordLineMatchesEncoder: the NDJSON appender is byte-identical
// to encoding/json on the hostile-character table.
func TestRecordLineMatchesEncoder(t *testing.T) {
	for _, r := range recordTable(2000) {
		checkRecordLine(t, r)
	}
}

// FuzzRecordLine compares the appender with json.Encoder on arbitrary
// field values, seeded with the table.
func FuzzRecordLine(f *testing.F) {
	for _, r := range recordTable(0) {
		f.Add(r.Token, r.Batch, r.Tuple, r.QueryID, r.Query, r.From, r.To, r.TS, r.Invalidated, r.EOF, r.Reason)
	}
	f.Fuzz(func(t *testing.T, token string, batch uint64, tuple, queryID int, query, from, to string, ts int64, inv, eof bool, reason string) {
		checkRecordLine(t, Record{Token: token, Batch: batch, Tuple: tuple, QueryID: queryID, Query: query,
			From: from, To: to, TS: ts, Invalidated: inv, EOF: eof, Reason: reason})
	})
}
