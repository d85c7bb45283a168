package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamrpq"
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
	mk := func(b, i uint64) Record { return Record{seq: Seq{Batch: b, Index: i}} }
	r.append(mk(1, 0), mk(1, 1))
	if recs, ok := r.since(Seq{}); !ok || len(recs) != 2 {
		t.Fatalf("since(zero) = %d, %v", len(recs), ok)
	}
	if recs, ok := r.since(Seq{Batch: 1, Index: 0}); !ok || len(recs) != 1 {
		t.Fatalf("since(1-0) = %d, %v", len(recs), ok)
	}
	r.append(mk(2, 0), mk(2, 1)) // evicts 1-0
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
func newTestServer(t testing.TB, cfg BrokerConfig, shards, depth int, queries ...string) (*Server, *httptest.Server) {
	t.Helper()
	qs := make([]*streamrpq.Query, len(queries))
	for i, src := range queries {
		qs[i] = streamrpq.MustCompile(src)
	}
	ev, err := streamrpq.NewMultiEvaluator(1000, 100, qs...)
	if err != nil {
		t.Fatal(err)
	}
	if depth > 0 {
		if err := ev.WithPipelineDepth(depth); err != nil {
			t.Fatal(err)
		}
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
// and invalidations, across the inline and pipelined schedules on
// append-only and churn streams.
func TestSubscribeReattachByteIdentical(t *testing.T) {
	configs := []struct {
		name          string
		shards, depth int
	}{
		{"inline", 0, 0},
		{"shards=1/depth=2", 1, 2},
		{"shards=8/depth=2", 8, 2},
	}
	for _, churn := range []bool{false, true} {
		for _, cfg := range configs {
			t.Run(fmt.Sprintf("churn=%v/%s", churn, cfg.name), func(t *testing.T) {
				_, hs := newTestServer(t, BrokerConfig{}, cfg.shards, cfg.depth, "(a/b)+", "a/b*")
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
	_, hs := newTestServer(t, BrokerConfig{SubscriberBuffer: 1 << 15}, 4, 2, "(a/b)+", "a/b*")

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
	_, hs := newTestServer(t, BrokerConfig{ReplayWindow: 4}, 0, 0, "a/b")
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

// TestOnlineQueriesHTTP: queries registered over the network take
// effect without restarting ingest, their results reach pattern- and
// id-filtered subscribers, and DELETE stops the flow.
func TestOnlineQueriesHTTP(t *testing.T) {
	_, hs := newTestServer(t, BrokerConfig{}, 4, 2, "a/b")
	rng := rand.New(rand.NewSource(9))
	var ts int64
	postIngest(t, hs.URL, tupleLines(rng, &ts, 40))

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
	after := postIngest(t, hs.URL, fmt.Sprintf("%d p q c\n", ts+2))
	if after.Records != 0 {
		t.Fatalf("records after removal = %d, want 0", after.Records)
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
	srv, hs := newTestServer(t, BrokerConfig{SubscriberBuffer: 64}, 4, 2, "a/b")
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
