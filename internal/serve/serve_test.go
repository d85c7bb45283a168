package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamrpq"
	"streamrpq/internal/persist"
)

func TestTokenRoundTrip(t *testing.T) {
	for _, s := range []Seq{{}, {Batch: 1}, {Batch: 7, Index: 42}, {Batch: ^uint64(0), Index: ^uint64(0)}} {
		got, err := ParseToken(s.Token())
		if err != nil || got != s {
			t.Fatalf("ParseToken(%q) = %v, %v; want %v", s.Token(), got, err, s)
		}
	}
	if s, err := ParseToken("start"); err != nil || s != (Seq{}) {
		t.Fatalf("ParseToken(start) = %v, %v", s, err)
	}
	for _, bad := range []string{"", "v2-1-1", "v1-1", "v1--1-2", "v1-x-1", "v1-1-x", "v1-1-1-1"} {
		if _, err := ParseToken(bad); err == nil {
			t.Fatalf("ParseToken(%q): want error", bad)
		}
	}
}

func TestReplayRing(t *testing.T) {
	r := newReplayRing(3, Seq{})
	r.append(mkEntry(1, 0), mkEntry(1, 1))
	if recs, ok := r.since(Seq{}); !ok || len(recs) != 2 {
		t.Fatalf("since(zero) = %d, %v", len(recs), ok)
	}
	if recs, ok := r.since(Seq{Batch: 1, Index: 0}); !ok || len(recs) != 1 {
		t.Fatalf("since(1-0) = %d, %v", len(recs), ok)
	}
	r.append(mkEntry(2, 0), mkEntry(2, 1)) // evicts 1-0
	if _, ok := r.since(Seq{}); ok {
		t.Fatal("since(zero) after eviction: want gone")
	}
	if recs, ok := r.since(Seq{Batch: 1, Index: 0}); !ok || len(recs) != 3 {
		t.Fatalf("since(1-0) after eviction = %d, %v", len(recs), ok)
	}
	if got := r.tail(); got != (Seq{Batch: 2, Index: 1}) {
		t.Fatalf("tail = %v", got)
	}
}

// newTestServer builds a server over a fresh evaluator and registers
// cleanup that unblocks any remaining subscriber handlers.
func newTestServer(t testing.TB, cfg BrokerConfig, shards int, queries ...string) (*Server, *httptest.Server) {
	t.Helper()
	qs := make([]*streamrpq.Query, len(queries))
	for i, src := range queries {
		qs[i] = streamrpq.MustCompile(src)
	}
	ev, err := streamrpq.NewMultiEvaluator(1000, 100, qs...)
	if err != nil {
		t.Fatal(err)
	}
	if shards > 0 {
		if err := ev.WithShards(shards); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := NewServer(ev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Broker().Shutdown() // closes subscriber channels, unblocks handlers
		hs.Close()
		ev.Close()
	})
	return srv, hs
}

// tupleLines renders a random batch of nb tuples as ingest body text,
// advancing *ts.
func tupleLines(rng *rand.Rand, ts *int64, nb int) string {
	var b strings.Builder
	labels := []string{"a", "b", "c"}
	for i := 0; i < nb; i++ {
		*ts += rng.Int63n(2)
		fmt.Fprintf(&b, "%d v%d v%d %s\n", *ts, rng.Intn(9), rng.Intn(9), labels[rng.Intn(3)])
	}
	return b.String()
}

func postIngest(t testing.TB, base, body string) IngestReply {
	t.Helper()
	resp, err := http.Post(base+"/ingest", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /ingest: %d: %s", resp.StatusCode, msg)
	}
	var rep IngestReply
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

// subscribeRead attaches at from ("" = live tail) and reads exactly
// want NDJSON lines, then disconnects (the randomized kill point).
func subscribeRead(t testing.TB, base, from string, want int) []string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	url := base + "/subscribe"
	if from != "" {
		url += "?from=" + from
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /subscribe: %d: %s", resp.StatusCode, msg)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var lines []string
	for len(lines) < want && sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) < want {
		t.Fatalf("stream ended after %d/%d lines (%v)", len(lines), want, sc.Err())
	}
	return lines
}

func lineToken(t testing.TB, line string) string {
	t.Helper()
	var rec struct {
		Token string `json:"token"`
	}
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("bad NDJSON line %q: %v", line, err)
	}
	return rec.Token
}

// TestSubscribeReattachByteIdentical: a subscriber that detaches at
// random kill points and reattaches with ?from=<last token> must read
// the byte-identical stream of an uninterrupted subscriber — matches
// and invalidations, at one shard and eight on append-only and churn
// streams. The depth=2 segments name a retired pipeline-depth axis,
// kept so the subtest names stay stable.
func TestSubscribeReattachByteIdentical(t *testing.T) {
	configs := []struct {
		name   string
		shards int
	}{
		{"inline", 0},
		{"shards=1/depth=2", 1},
		{"shards=8/depth=2", 8},
	}
	for _, churn := range []bool{false, true} {
		for _, cfg := range configs {
			t.Run(fmt.Sprintf("churn=%v/%s", churn, cfg.name), func(t *testing.T) {
				_, hs := newTestServer(t, BrokerConfig{}, cfg.shards, "(a/b)+", "a/b*")
				rng := rand.New(rand.NewSource(7))
				var ts int64
				var inserted []string
				total := 0
				for b := 0; b < 12; b++ {
					body := tupleLines(rng, &ts, 25)
					if churn {
						// Re-delete a few previously inserted edges at the
						// current timestamp.
						lines := strings.Split(strings.TrimSpace(body), "\n")
						inserted = append(inserted, lines...)
						for i := 0; i < 4 && len(inserted) > 0; i++ {
							old := strings.Fields(inserted[rng.Intn(len(inserted))])
							lines = append(lines, fmt.Sprintf("%d %s %s %s -", ts, old[1], old[2], old[3]))
						}
						body = strings.Join(lines, "\n") + "\n"
					}
					total += postIngest(t, hs.URL, body).Records
				}
				if total == 0 {
					t.Fatal("workload produced no records; test is vacuous")
				}
				full := subscribeRead(t, hs.URL, "start", total)

				var chopped []string
				last := "start"
				for len(chopped) < total {
					n := 1 + rng.Intn(7)
					if rem := total - len(chopped); n > rem {
						n = rem
					}
					chunk := subscribeRead(t, hs.URL, last, n)
					chopped = append(chopped, chunk...)
					last = lineToken(t, chunk[len(chunk)-1])
				}
				if strings.Join(full, "\n") != strings.Join(chopped, "\n") {
					for i := range full {
						if full[i] != chopped[i] {
							t.Fatalf("streams diverge at line %d:\n full: %s\nchop: %s", i, full[i], chopped[i])
						}
					}
					t.Fatal("streams diverge")
				}
				// An invalidation must have crossed the wire on churn runs.
				if churn && !strings.Contains(strings.Join(full, "\n"), `"invalidated":true`) {
					t.Fatal("churn stream published no invalidation records")
				}
			})
		}
	}
}

// TestSubscribeLiveMatchesReplay: a live subscriber (attached before
// ingest) and a replay subscriber reading afterwards from the same
// position get byte-identical streams.
func TestSubscribeLiveMatchesReplay(t *testing.T) {
	// Large subscriber buffer: the live reader must never be evicted,
	// even when the race detector slows it down.
	_, hs := newTestServer(t, BrokerConfig{SubscriberBuffer: 1 << 15}, 4, "(a/b)+", "a/b*")

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/subscribe?from=start", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	linec := make(chan string, 1<<16)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
		for sc.Scan() {
			linec <- sc.Text()
		}
		close(linec)
	}()

	rng := rand.New(rand.NewSource(3))
	var ts int64
	total := 0
	for b := 0; b < 10; b++ {
		total += postIngest(t, hs.URL, tupleLines(rng, &ts, 30)).Records
	}
	var live []string
	for len(live) < total {
		select {
		case l, ok := <-linec:
			if !ok {
				t.Fatalf("live stream ended after %d/%d lines", len(live), total)
			}
			live = append(live, l)
		case <-ctx.Done():
			t.Fatalf("timed out after %d/%d live lines", len(live), total)
		}
	}
	cancel()

	replay := subscribeRead(t, hs.URL, "start", total)
	for i := range live {
		if live[i] != replay[i] {
			t.Fatalf("live and replay diverge at line %d:\nlive:   %s\nreplay: %s", i, live[i], replay[i])
		}
	}
}

// TestResumeTokenBounds: tokens beyond the replay window answer 410
// Gone; tokens ahead of the stream answer 400.
func TestResumeTokenBounds(t *testing.T) {
	_, hs := newTestServer(t, BrokerConfig{ReplayWindow: 4}, 0, "a/b")
	rng := rand.New(rand.NewSource(5))
	var ts int64
	total := 0
	for total < 20 {
		total += postIngest(t, hs.URL, tupleLines(rng, &ts, 30)).Records
	}
	get := func(from string) int {
		resp, err := http.Post(hs.URL+"/subscribe?from="+from, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("start"); code != http.StatusGone {
		t.Fatalf("from=start beyond window: got %d, want 410", code)
	}
	if code := get("v1-999999-0"); code != http.StatusBadRequest {
		t.Fatalf("future token: got %d, want 400", code)
	}
	if code := get("not-a-token"); code != http.StatusBadRequest {
		t.Fatalf("malformed token: got %d, want 400", code)
	}
}

// TestRequestBodyBounded: a POST body over maxBodyBytes — on /ingest,
// /queries or /subscribe — answers 413 with a JSON error naming the
// limit, and applies nothing: no batch, no WAL record, no registration,
// no subscriber. A body at the limit is still accepted.
func TestRequestBodyBounded(t *testing.T) {
	dir := t.TempDir()
	ev, err := streamrpq.NewMultiEvaluator(1000, 100, streamrpq.MustCompile("a/b"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.WithPersistence(dir); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ev, BrokerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Broker().Shutdown()
		hs.Close()
		ev.Close()
	})
	postIngest(t, hs.URL, "1 x y a\n1 y z b\n")

	files := func() map[string]int64 {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		sizes := map[string]int64{}
		for _, e := range entries {
			info, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			sizes[e.Name()] = info.Size()
		}
		return sizes
	}
	batches, queries, onDisk := ev.AppliedBatches(), ev.NumQueries(), files()

	// Each oversized body is well-formed up to the bound: only its size
	// is wrong.
	line := "2 x y a\n"
	ingest := strings.Repeat(line, maxBodyBytes/len(line)+1)
	query := `{"pattern":"c"}` + strings.Repeat(" ", maxBodyBytes)
	subscribe := `{"from":"start"}` + strings.Repeat(" ", maxBodyBytes)
	for _, c := range []struct{ path, body string }{
		{"/ingest", ingest}, {"/queries", query}, {"/subscribe", subscribe},
	} {
		resp, err := http.Post(hs.URL+c.path, "", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var reply struct{ Error, Limit string }
		err = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil {
			t.Fatalf("POST %s with %d bytes: %d (%v), want 413", c.path, len(c.body), resp.StatusCode, err)
		}
		if want := fmt.Sprint(maxBodyBytes); reply.Limit != want || !strings.Contains(reply.Error, want) {
			t.Fatalf("POST %s: 413 body %+v does not name the %s-byte limit", c.path, reply, want)
		}
	}
	if got := ev.AppliedBatches(); got != batches {
		t.Fatalf("AppliedBatches %d after oversized ingest, want %d", got, batches)
	}
	if got := ev.NumQueries(); got != queries {
		t.Fatalf("%d queries after oversized registration, want %d", got, queries)
	}
	if got := srv.Broker().Snapshot().Subscribers; got != 0 {
		t.Fatalf("%d subscribers after oversized subscribe, want 0", got)
	}
	if got := files(); !reflect.DeepEqual(got, onDisk) {
		t.Fatalf("persistence directory changed:\nbefore %v\nafter  %v", onDisk, got)
	}

	// A body of exactly the bound is applied.
	atLimit := "3 x y a" + strings.Repeat(" ", maxBodyBytes-len("3 x y a"))
	if rep := postIngest(t, hs.URL, atLimit); rep.Batch != batches+1 {
		t.Fatalf("body at the limit applied as batch %d, want %d", rep.Batch, batches+1)
	}
}

// TestAddQueryCheckpointFailureKeepsID: when the checkpoint that makes
// a registration durable fails, the query is registered and emitting
// all the same. The broker still records its id, so its records carry
// that id, and a subscriber filtered on id 0 receives none of them.
func TestAddQueryCheckpointFailureKeepsID(t *testing.T) {
	dir := t.TempDir()
	ev, err := streamrpq.NewMultiEvaluator(1000, 100, streamrpq.MustCompile("a/b"))
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Close()
	if err := ev.WithPersistence(dir); err != nil {
		t.Fatal(err)
	}
	b, err := NewBroker(ev, BrokerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Shutdown()
	// The registration's checkpoint writes generation 1: a directory in
	// its place makes the write fail.
	if err := os.Mkdir(persist.SnapshotPath(dir, 1), 0o755); err != nil {
		t.Fatal(err)
	}
	id, err := b.AddQuery("c+")
	if err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("AddQuery = %d, %v; want the checkpoint error", id, err)
	}
	if id != 1 {
		t.Fatalf("AddQuery id = %d, want 1", id)
	}
	subs := map[int]*subscriber{}
	for _, q := range []int{0, 1} {
		if subs[q], err = b.Subscribe([]int{q}, nil, nil); err != nil {
			t.Fatal(err)
		}
		defer b.Unsubscribe(subs[q])
	}
	if _, err := b.Ingest([]streamrpq.Tuple{
		{TS: 1, Src: "x", Dst: "y", Label: "a"},
		{TS: 1, Src: "y", Dst: "z", Label: "b"},
		{TS: 1, Src: "p", Dst: "q", Label: "c"},
	}); err != nil {
		t.Fatal(err)
	}
	for q, want := range map[int]string{0: "a/b x z", 1: "c+ p q"} {
		var got []string
		for len(subs[q].ch) > 0 {
			var rec Record
			if err := json.Unmarshal(<-subs[q].ch, &rec); err != nil {
				t.Fatal(err)
			}
			if rec.QueryID != q {
				t.Fatalf("subscriber of id %d got a record of id %d: %+v", q, rec.QueryID, rec)
			}
			got = append(got, rec.Query+" "+rec.From+" "+rec.To)
		}
		if len(got) != 1 || got[0] != want {
			t.Fatalf("subscriber of id %d got %q, want [%q]", q, got, want)
		}
	}
}

// TestSameQueryTwiceKeepsBothIDs: one *Query registered twice is two
// registrations, and each record carries the id of the one it belongs
// to, so a subscriber filtered on either id receives that one's record.
func TestSameQueryTwiceKeepsBothIDs(t *testing.T) {
	q := streamrpq.MustCompile("a")
	ev, err := streamrpq.NewMultiEvaluator(10, 1, q, q)
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Close()
	b, err := NewBroker(ev, BrokerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Shutdown()
	subs := map[int]*subscriber{}
	for _, id := range []int{0, 1} {
		if subs[id], err = b.Subscribe([]int{id}, nil, nil); err != nil {
			t.Fatal(err)
		}
		defer b.Unsubscribe(subs[id])
	}
	if rep, err := b.Ingest([]streamrpq.Tuple{{TS: 1, Src: "x", Dst: "y", Label: "a"}}); err != nil {
		t.Fatal(err)
	} else if rep.Records != 2 {
		t.Fatalf("records = %d, want 2", rep.Records)
	}
	for id, sub := range subs {
		if len(sub.ch) != 1 {
			t.Fatalf("subscriber of id %d got %d records, want 1", id, len(sub.ch))
		}
		var rec Record
		if err := json.Unmarshal(<-sub.ch, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.QueryID != id {
			t.Fatalf("subscriber of id %d got a record of id %d", id, rec.QueryID)
		}
	}
}

// TestSubscribeGoneNamesFloor: once the stream start is out of reach —
// after ring eviction, or after a restart — from=start answers 410
// with the oldest resumable position in the body, and resuming from
// that token replays exactly the retained window.
func TestSubscribeGoneNamesFloor(t *testing.T) {
	ingest := func(t *testing.T, base string, from, to int) {
		for i := from; i < to; i++ {
			postIngest(t, base, fmt.Sprintf("%d s%d d%d a\n", i+1, i, i)) // one record per batch
		}
	}
	for _, tc := range []struct {
		name     string
		previous int    // batches applied before the broker started
		batches  int    // batches ingested through the server
		floor    string // the oldest resumable position
		replay   []string
	}{
		// Window 4 retains batches 7..10.
		{"eviction", 0, 10, "v1-6-0", []string{"v1-7-0", "v1-8-0", "v1-9-0", "v1-10-0"}},
		// Batches 1..3 belong to the previous process.
		{"restart", 3, 2, "v1-3-18446744073709551615", []string{"v1-4-0", "v1-5-0"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ev, err := streamrpq.NewMultiEvaluator(1<<30, 1<<29, streamrpq.MustCompile("a"))
			if err != nil {
				t.Fatal(err)
			}
			defer ev.Close()
			for i := 0; i < tc.previous; i++ {
				if _, err := ev.IngestBatch([]streamrpq.Tuple{{TS: int64(i + 1), Src: "p", Dst: "q", Label: "a"}}); err != nil {
					t.Fatal(err)
				}
			}
			srv, err := NewServer(ev, BrokerConfig{ReplayWindow: 4})
			if err != nil {
				t.Fatal(err)
			}
			hs := httptest.NewServer(srv.Handler())
			defer hs.Close()
			defer srv.Broker().Shutdown()
			ingest(t, hs.URL, tc.previous, tc.previous+tc.batches)

			if _, err := srv.Broker().Subscribe(nil, nil, &Seq{}); !errors.Is(err, ErrGone) {
				t.Fatalf("broker: from=start = %v, want ErrGone", err)
			}
			resp, err := http.Post(hs.URL+"/subscribe?from=start", "", nil)
			if err != nil {
				t.Fatal(err)
			}
			var gone struct {
				Error string `json:"error"`
				Floor string `json:"floor"`
			}
			err = json.NewDecoder(resp.Body).Decode(&gone)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusGone || gone.Error == "" || gone.Floor != tc.floor {
				t.Fatalf("from=start: %d %+v (%v), want 410 naming floor %s", resp.StatusCode, gone, err, tc.floor)
			}

			// Resume from the floor; Shutdown then ends the stream, so the
			// replay is read to its EOF record and nothing can hide behind it.
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/subscribe?from="+gone.Floor, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err = http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("from=%s: %d, want 200", gone.Floor, resp.StatusCode)
			}
			srv.Broker().Shutdown() // the handler subscribed before it sent the headers
			var got []string
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				got = append(got, lineToken(t, sc.Text()))
			}
			want := append(tc.replay, tc.replay[len(tc.replay)-1]) // the EOF record resumes at the tail
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Fatalf("from=%s replayed tokens %v, want %v", gone.Floor, got, want)
			}
		})
	}
}

// TestOnlineQueriesHTTP: queries registered over the network take
// effect without restarting ingest, their results reach pattern- and
// id-filtered subscribers, and DELETE stops the flow.
func TestOnlineQueriesHTTP(t *testing.T) {
	_, hs := newTestServer(t, BrokerConfig{}, 4, "a/b")
	// rpq_results_total is a counter: no registration or removal may
	// take it down.
	var results int64
	checkResults := func(when string) {
		t.Helper()
		mr, err := http.Get(hs.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(mr.Body)
		mr.Body.Close()
		_, line, _ := strings.Cut(string(body), "\nrpq_results_total ")
		var n int64
		if _, err := fmt.Sscan(line, &n); err != nil {
			t.Fatalf("%s: rpq_results_total: %v", when, err)
		}
		if n < results {
			t.Fatalf("%s: rpq_results_total went down from %d to %d", when, results, n)
		}
		results = n
	}
	rng := rand.New(rand.NewSource(9))
	var ts int64
	published := postIngest(t, hs.URL, tupleLines(rng, &ts, 40)).Records
	checkResults("after the first batch")

	resp, err := http.Post(hs.URL+"/queries", "application/json", strings.NewReader(`{"pattern":"c"}`))
	if err != nil {
		t.Fatal(err)
	}
	var added struct {
		ID int `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&added); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if added.ID != 1 {
		t.Fatalf("added query id = %d, want 1", added.ID)
	}
	checkResults("after POST /queries")

	lr, err := http.Get(hs.URL + "/queries")
	if err != nil {
		t.Fatal(err)
	}
	var list []QueryInfo
	if err := json.NewDecoder(lr.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	lr.Body.Close()
	if len(list) != 2 || list[1].Pattern != "c" {
		t.Fatalf("GET /queries = %+v", list)
	}

	// Single-label tuples make the new query's record count exact: one
	// match per c-tuple inserted after registration.
	mark := postIngest(t, hs.URL, fmt.Sprintf("%d x y c\n%d y z c\n", ts+1, ts+1))
	if mark.Records != 2 {
		t.Fatalf("post-registration c batch produced %d records, want 2", mark.Records)
	}
	published += mark.Records
	// Filtered subscription: only query "c" records.
	ctxLines := subscribeReadFiltered(t, hs.URL, "start", "c", 2)
	for _, l := range ctxLines {
		if !strings.Contains(l, `"query":"c"`) {
			t.Fatalf("filtered stream leaked foreign record: %s", l)
		}
	}

	// Remove and verify the flow stops: later c tuples produce nothing.
	dreq, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/queries/%d", hs.URL, added.ID), nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE /queries/%d: %d", added.ID, dresp.StatusCode)
	}
	checkResults("after DELETE /queries")
	after := postIngest(t, hs.URL, fmt.Sprintf("%d p q c\n", ts+2))
	if after.Records != 0 {
		t.Fatalf("records after removal = %d, want 0", after.Records)
	}
	checkResults("after the last batch")
	matches := 0
	for _, l := range subscribeRead(t, hs.URL, "start", published) {
		if !strings.Contains(l, `"invalidated":true`) {
			matches++
		}
	}
	if results != int64(matches) {
		t.Fatalf("rpq_results_total = %d, a from=start subscriber reads %d match records", results, matches)
	}
	// Double delete → 404.
	dreq2, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/queries/%d", hs.URL, added.ID), nil)
	dresp2, err := http.DefaultClient.Do(dreq2)
	if err != nil {
		t.Fatal(err)
	}
	dresp2.Body.Close()
	if dresp2.StatusCode != http.StatusNotFound {
		t.Fatalf("second DELETE: %d, want 404", dresp2.StatusCode)
	}
}

func subscribeReadFiltered(t testing.TB, base, from, pattern string, want int) []string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	url := base + "/subscribe?from=" + from + "&pattern=" + pattern
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var lines []string
	for len(lines) < want && sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) < want {
		t.Fatalf("filtered stream ended after %d/%d lines (%v)", len(lines), want, sc.Err())
	}
	return lines
}

// TestGracefulShutdown: Shutdown drains — every open subscriber stream
// ends with a final {"eof":true,"token":…} record whose token is the
// stream tail, and the HTTP server stops cleanly.
func TestGracefulShutdown(t *testing.T) {
	qs := []*streamrpq.Query{streamrpq.MustCompile("a/b")}
	ev, err := streamrpq.NewMultiEvaluator(1000, 100, qs...)
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Close()
	srv, err := NewServer(ev, BrokerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewUnstartedServer(srv.Handler())
	hs.Start()
	defer hs.Close()

	rng := rand.New(rand.NewSource(1))
	var ts int64
	var lastTok string
	total := 0
	for total == 0 {
		rep := postIngest(t, hs.URL, tupleLines(rng, &ts, 40))
		total += rep.Records
		lastTok = rep.Token
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/subscribe?from=start", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	done := make(chan []string, 1)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		var lines []string
		for sc.Scan() {
			lines = append(lines, sc.Text())
		}
		done <- lines
	}()

	// Let the subscriber drain its replay, then shut down.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Broker().Snapshot().Subscribers != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	lines := <-done
	if len(lines) != total+1 {
		t.Fatalf("subscriber got %d lines, want %d records + eof", len(lines), total)
	}
	var final struct {
		EOF    bool   `json:"eof"`
		Token  string `json:"token"`
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatal(err)
	}
	if !final.EOF || final.Reason != "shutdown" {
		t.Fatalf("final record = %+v, want eof/shutdown", final)
	}
	if final.Token != lastTok {
		t.Fatalf("final token = %s, want stream tail %s", final.Token, lastTok)
	}

	// Work after shutdown is refused.
	if _, err := srv.Broker().Ingest(nil); err != ErrShutdown {
		t.Fatalf("Ingest after shutdown = %v, want ErrShutdown", err)
	}
	hr, err := http.Get(hs.URL + "/healthz")
	if err == nil {
		if hr.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("healthz after shutdown = %d, want 503", hr.StatusCode)
		}
		hr.Body.Close()
	}
}

// TestSubscriberStress: with hundreds of attached subscribers — one of
// them permanently stalled — ingest never blocks: the stalled
// subscriber is evicted when its bounded buffer fills, every healthy
// subscriber receives the full stream, and per-batch ingest latency
// stays bounded.
func TestSubscriberStress(t *testing.T) {
	const subscribers = 200
	// Buffer small enough that the stalled subscriber is evicted within
	// the run, large enough that a healthy reader can never overflow:
	// the drain barrier below keeps healthy lag under one batch, and no
	// batch in this workload comes near 64 records.
	srv, hs := newTestServer(t, BrokerConfig{SubscriberBuffer: 64}, 4, "a/b")
	broker := srv.Broker()

	// The stalled consumer: attached directly at the broker, never read.
	stalled, err := broker.Subscribe(nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	counts := make([]int64, subscribers)
	var wg sync.WaitGroup
	ready := make(chan struct{}, subscribers)
	for i := 0; i < subscribers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/subscribe?from=start", nil)
			if err != nil {
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			ready <- struct{}{}
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
			for sc.Scan() {
				if strings.Contains(sc.Text(), `"eof":true`) {
					return
				}
				atomic.AddInt64(&counts[i], 1)
			}
		}(i)
	}
	for i := 0; i < subscribers; i++ {
		select {
		case <-ready:
		case <-ctx.Done():
			t.Fatal("subscribers failed to attach in time")
		}
	}

	rng := rand.New(rand.NewSource(17))
	var ts int64
	total := 0
	var worst time.Duration
	for b := 0; b < 100; b++ {
		var tuples []streamrpq.Tuple
		for i := 0; i < 20; i++ {
			ts += rng.Int63n(2)
			tuples = append(tuples, streamrpq.Tuple{
				TS:    ts,
				Src:   fmt.Sprintf("v%d", rng.Intn(9)),
				Dst:   fmt.Sprintf("v%d", rng.Intn(9)),
				Label: []string{"a", "b"}[rng.Intn(2)],
			})
		}
		start := time.Now()
		rep, err := broker.Ingest(tuples)
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > worst {
			worst = d
		}
		total += rep.Records
		// Drain barrier (excluded from the latency measurement): wait
		// until every healthy reader has consumed the whole prefix, so
		// healthy lag is bounded by one batch. The stalled subscriber
		// never drains, so its buffer still fills.
		for {
			drained := true
			for i := range counts {
				if atomic.LoadInt64(&counts[i]) != int64(total) {
					drained = false
					break
				}
			}
			if drained {
				break
			}
			if ctx.Err() != nil {
				t.Fatal("healthy subscribers failed to drain between batches")
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Generous bound: the point is "bounded", not "fast" — a broker that
	// blocked on the stalled subscriber would hit the 60s test timeout.
	if worst > 5*time.Second {
		t.Fatalf("worst per-batch ingest latency %v with a stalled subscriber", worst)
	}
	if total == 0 {
		t.Fatal("stress workload produced no records; test is vacuous")
	}

	// The stalled subscriber was evicted with a resumable final record.
	select {
	case _, ok := <-stalled.ch:
		if !ok {
			t.Fatal("stalled subscriber closed before any record")
		}
	case <-ctx.Done():
		t.Fatal("stalled subscriber never received records")
	}
	m := broker.Snapshot()
	if total <= 64 {
		t.Fatalf("workload produced only %d records; cannot fill the stalled buffer", total)
	}
	if m.Evictions == 0 {
		t.Fatalf("no evictions after %d records to a stalled subscriber (buffer 64)", total)
	}
	if m.Subscribers != subscribers {
		t.Fatalf("subscribers = %d, want %d healthy", m.Subscribers, subscribers)
	}

	// Shutdown delivers eof to the healthy subscribers; all of them must
	// have seen the full stream.
	if err := broker.Shutdown(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i := range counts {
		if n := atomic.LoadInt64(&counts[i]); n != int64(total) {
			t.Fatalf("subscriber %d got %d/%d records", i, n, total)
		}
	}

	// Metrics and health endpoints reflect the drain.
	mr, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	if !strings.Contains(string(body), "rpq_subscriber_evictions_total") {
		t.Fatalf("metrics output missing eviction counter:\n%s", body)
	}
}

// TestQueryIDsSurviveRecovery: a server resumed from a checkpoint lists
// the ids it listed before, a removed query's id included among the
// gaps, and DELETE /queries/{id} removes the query that id named before
// recovery.
func TestQueryIDsSurviveRecovery(t *testing.T) {
	listQueries := func(base string) []QueryInfo {
		t.Helper()
		resp, err := http.Get(base + "/queries")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var list []QueryInfo
		if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
			t.Fatal(err)
		}
		return list
	}
	remove := func(base string, id int) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/queries/%d", base, id), nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("DELETE /queries/%d: %d", id, resp.StatusCode)
		}
	}

	dir := t.TempDir()
	ev, err := streamrpq.NewMultiEvaluator(1000, 100,
		streamrpq.MustCompile("a"), streamrpq.MustCompile("b"), streamrpq.MustCompile("c"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.WithPersistence(dir); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ev, BrokerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	remove(hs.URL, 0)
	postIngest(t, hs.URL, "1 x y a\n1 x y b\n1 x y c\n")
	before := listQueries(hs.URL)
	if want := []QueryInfo{{ID: 1, Pattern: "b"}, {ID: 2, Pattern: "c"}}; !reflect.DeepEqual(before, want) {
		t.Fatalf("GET /queries = %+v, want %+v", before, want)
	}
	if err := srv.Broker().Shutdown(); err != nil { // checkpoints
		t.Fatal(err)
	}
	hs.Close()
	ev.Close()

	ev2, _, err := streamrpq.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ev2.Close()
	srv2, err := NewServer(ev2, BrokerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	hs2 := httptest.NewServer(srv2.Handler())
	defer hs2.Close()
	defer srv2.Broker().Shutdown()
	if after := listQueries(hs2.URL); !reflect.DeepEqual(after, before) {
		t.Fatalf("GET /queries after recovery = %+v, want %+v", after, before)
	}
	remove(hs2.URL, 1) // b, as before recovery
	if got, want := listQueries(hs2.URL), []QueryInfo{{ID: 2, Pattern: "c"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("GET /queries after DELETE /queries/1 = %+v, want %+v", got, want)
	}
	if rep := postIngest(t, hs2.URL, "2 y z b\n2 y z c\n"); rep.Records != 1 {
		t.Fatalf("records after removing b = %d, want 1 (c's)", rep.Records)
	}
}
