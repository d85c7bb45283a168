package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"streamrpq"
	"streamrpq/internal/core"
	"streamrpq/internal/serve"
)

// system is a constructed workload instance the generator drives, one
// batch at a time and in stream order, through public functions only.
type system interface {
	// send feeds tuples [lo, hi) and returns once the system has
	// accepted them: IngestBatch returned, or POST /ingest replied.
	send(lo, hi int) (ticket, error)
	// wait blocks until the consumer holds the batch's last record and
	// returns when that happened (for a batch with no records: when
	// send returned), after handing the batch's records to the checks.
	wait(t ticket) (time.Time, error)
	// stats reads the evaluator's counters; call between batches only.
	stats() core.Stats
	close() error
}

// ticket identifies one sent batch.
type ticket struct {
	hi      int // end of the batch's tuple range: its position in the stream
	records int
	sent    time.Time // when send returned
}

// checks is what the consumer side keeps of the result stream: the
// stream identity over the check prefix, the distinct pairs over the
// oracle prefix, and the record count of everything.
type checks struct {
	hashUntil   int // batches ending at or before this tuple are hashed
	oracleUntil int // records of batches ending at or before this tuple enter pairs

	stream   streamHash
	perBatch []uint64 // hash of every hashed batch, in stream order
	pairs    map[pairKey]struct{}
	records  int64
}

func newChecks(hashUntil, oracleUntil int) *checks {
	return &checks{hashUntil: hashUntil, oracleUntil: oracleUntil, pairs: map[pairKey]struct{}{}}
}

// wants reports whether the records of the batch ending at hi are
// needed, not just their number.
func (c *checks) wants(hi int) bool { return hi <= c.hashUntil || hi <= c.oracleUntil }

// consume takes one batch's records; batches arrive in stream order.
func (c *checks) consume(hi int, recs []rec) {
	if hi <= c.hashUntil {
		var b batchHash
		for _, r := range recs {
			b.add(r)
		}
		h := b.done()
		c.perBatch = append(c.perBatch, h)
		c.stream.addBatch(h, len(recs))
	}
	if hi <= c.oracleUntil {
		for _, r := range recs {
			if !r.inv {
				c.pairs[pairKey{query: r.query, from: r.from, to: r.to}] = struct{}{}
			}
		}
	}
}

// library drives a MultiEvaluator in process: the caller of
// IngestBatch is the consumer, so a batch's results are in hand when
// the call returns.
type library struct {
	in    *input
	batch int
	ev    *streamrpq.MultiEvaluator
	index map[*streamrpq.Query]int
	ck    *checks
	buf   []streamrpq.Tuple
	held  []streamrpq.BatchResult // reply of the batch sent last
	recs  []rec
}

func newLibrary(s spec, in *input, ck *checks, dir string) (*library, error) {
	ev, err := s.newEvaluator(in.queries, dir)
	if err != nil {
		return nil, err
	}
	return adoptLibrary(in, ev, ck, s.batch), nil
}

// adoptLibrary wraps an evaluator that already exists (Recover's).
func adoptLibrary(in *input, ev *streamrpq.MultiEvaluator, ck *checks, batch int) *library {
	l := &library{in: in, batch: batch, ev: ev, ck: ck, index: map[*streamrpq.Query]int{}}
	for i, q := range ev.RegisteredQueries() {
		if q != nil {
			l.index[q] = i
		}
	}
	return l
}

func (l *library) send(lo, hi int) (ticket, error) {
	l.buf = l.in.facade(l.buf, lo, hi)
	brs, err := l.ev.IngestBatch(l.buf)
	t := ticket{hi: hi, sent: time.Now()}
	if err != nil {
		return t, err
	}
	for _, br := range brs {
		t.records += len(br.Matches) + len(br.Invalidations)
	}
	l.held = brs
	return t, nil
}

func (l *library) wait(t ticket) (time.Time, error) {
	l.ck.records += int64(t.records)
	if l.ck.wants(t.hi) {
		l.recs = records(l.recs, l.held, l.index)
		l.ck.consume(t.hi, l.recs)
	}
	return t.sent, nil
}

// feed sends and consumes tuples [lo, hi) batch by batch, untimed.
func (l *library) feed(lo, hi int) error {
	for ; lo < hi; lo += l.batch {
		tk, err := l.send(lo, lo+l.batch)
		if err != nil {
			return err
		}
		l.wait(tk)
	}
	return nil
}

func (l *library) stats() core.Stats { return l.ev.Stats() }
func (l *library) close() error      { return l.ev.Close() }

// served drives the deployed configuration: a persistent evaluator
// behind serve.Server on a loopback HTTP server, text-line batches in
// through POST /ingest, results out through one all-queries NDJSON
// subscription read by its own goroutine.
type served struct {
	in    *input
	batch int
	ev    *streamrpq.MultiEvaluator
	srv   *serve.Server
	ts    *httptest.Server
	body  []byte

	cancel context.CancelFunc // ends the subscription
	done   chan struct{}      // closed when the subscriber goroutine has exited

	mu      sync.Mutex
	cond    *sync.Cond
	ck      *checks
	read    []int       // records read, by batch number
	last    []time.Time // when the newest record of the batch was read
	pending [][]rec     // records of batches the checks want, until waited for
	bytes   int64       // NDJSON bytes read
	subErr  error       // eviction, stream end or read error
}

// subscriberBuffer is the per-subscriber record buffer: the default
// 1024 would evict the subscriber on one bursty batch, and evictions
// count as failures.
const subscriberBuffer = 131072

func newServed(s spec, in *input, ck *checks, dir string) (_ *served, err error) {
	v := &served{in: in, batch: s.batch, ck: ck, done: make(chan struct{})}
	v.cond = sync.NewCond(&v.mu)
	if v.ev, err = s.newEvaluator(in.queries, dir); err != nil {
		return nil, err
	}
	if v.srv, err = serve.NewServer(v.ev, serve.BrokerConfig{SubscriberBuffer: subscriberBuffer}); err != nil {
		v.ev.Close()
		return nil, err
	}
	v.ts = httptest.NewServer(v.srv.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	v.cancel = cancel
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, v.ts.URL+"/subscribe", nil)
	resp, err := v.ts.Client().Do(req)
	if err == nil && resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		err = fmt.Errorf("POST /subscribe: %s", resp.Status)
	}
	if err != nil {
		close(v.done)
		v.close()
		return nil, err
	}
	go v.subscribe(resp.Body)
	return v, nil
}

// line is the part of an NDJSON record the consumer reads.
type line struct {
	Batch       uint64 `json:"batch"`
	QueryID     int    `json:"queryId"`
	From        string `json:"from"`
	To          string `json:"to"`
	TS          int64  `json:"ts"`
	Invalidated bool   `json:"invalidated"`
	EOF         bool   `json:"eof"`
	Reason      string `json:"reason"`
}

var batchField = []byte(`"batch":`)

// subscribe is the subscriber goroutine: it stamps every record with
// its read time and keeps the records the checks want.
func (v *served) subscribe(body io.ReadCloser) {
	defer close(v.done)
	defer body.Close()
	r := bufio.NewReaderSize(body, 1<<16)
	fail := func(err error) {
		v.mu.Lock()
		v.subErr = err
		v.cond.Broadcast()
		v.mu.Unlock()
	}
	for {
		raw, err := r.ReadSlice('\n')
		if err != nil {
			fail(fmt.Errorf("subscription ended: %w", err))
			return
		}
		now := time.Now()
		// Every record carries "batch":<n>; a line without it is the
		// final EOF record (eviction or shutdown).
		i := bytes.Index(raw, batchField)
		if i < 0 {
			var l line
			if err := json.Unmarshal(raw, &l); err != nil {
				fail(fmt.Errorf("bad record %q: %w", raw, err))
			} else {
				fail(fmt.Errorf("subscription closed by the server: eof=%v reason=%q", l.EOF, l.Reason))
			}
			return
		}
		j := i + len(batchField)
		k := j
		for k < len(raw) && raw[k] >= '0' && raw[k] <= '9' {
			k++
		}
		b, _ := strconv.Atoi(string(raw[j:k]))
		var keep *rec
		if v.ck.wants(b * v.batch) {
			var l line
			if err := json.Unmarshal(raw, &l); err != nil {
				fail(fmt.Errorf("bad record %q: %w", raw, err))
				return
			}
			keep = &rec{query: l.QueryID, inv: l.Invalidated, from: l.From, to: l.To, ts: l.TS}
		}
		v.mu.Lock()
		for len(v.read) <= b {
			v.read = append(v.read, 0)
			v.last = append(v.last, time.Time{})
			v.pending = append(v.pending, nil)
		}
		v.read[b]++
		v.last[b] = now
		v.bytes += int64(len(raw))
		if keep != nil {
			v.pending[b] = append(v.pending[b], *keep)
		}
		v.cond.Broadcast()
		v.mu.Unlock()
	}
}

func (v *served) send(lo, hi int) (ticket, error) {
	v.body = v.in.text(v.body, lo, hi)
	resp, err := v.ts.Client().Post(v.ts.URL+"/ingest", "text/plain", bytes.NewReader(v.body))
	if err != nil {
		return ticket{hi: hi, sent: time.Now()}, err
	}
	defer resp.Body.Close()
	var rep serve.IngestReply
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return ticket{hi: hi, sent: time.Now()}, fmt.Errorf("POST /ingest: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	err = json.NewDecoder(resp.Body).Decode(&rep)
	t := ticket{hi: hi, records: rep.Records, sent: time.Now()}
	if err == nil && int(rep.Batch)*v.batch != hi {
		err = fmt.Errorf("POST /ingest: reply names batch %d for tuples ending at %d", rep.Batch, hi)
	}
	return t, err
}

func (v *served) wait(t ticket) (time.Time, error) {
	b := t.hi / v.batch
	v.mu.Lock()
	defer v.mu.Unlock()
	for v.subErr == nil && (len(v.read) <= b || v.read[b] < t.records) && t.records > 0 {
		v.cond.Wait()
	}
	if t.records > 0 && (len(v.read) <= b || v.read[b] < t.records) {
		return t.sent, v.subErr
	}
	v.ck.records += int64(t.records)
	var recs []rec
	end := t.sent
	if t.records > 0 {
		recs, v.pending[b] = v.pending[b], nil
		if v.last[b].After(end) {
			end = v.last[b]
		}
	}
	if v.ck.wants(t.hi) {
		v.ck.consume(t.hi, recs)
	}
	return end, nil
}

func (v *served) stats() core.Stats { return v.ev.Stats() }

// wire returns the NDJSON bytes read and the records consumed so far.
func (v *served) wire() (bytes, records int64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.bytes, v.ck.records
}

// close stops the subscriber and the server, waits for both, and
// closes the evaluator. It does not checkpoint: with persistence this
// is the kill stand-in (file descriptors and the directory lock are
// released, the on-disk state is left as the last batch wrote it).
func (v *served) close() error {
	v.cancel()
	<-v.done
	if v.ts != nil {
		v.ts.Close()
	}
	return v.ev.Close()
}

// newSystem builds a workload instance the way the workload names it.
// A persistent instance owns dir.
func newSystem(s spec, in *input, ck *checks, dir string) (system, error) {
	if s.serve {
		return newServed(s, in, ck, dir)
	}
	return newLibrary(s, in, ck, dir)
}

// scratch is where a run keeps its persistence directories: inside
// the checkout, under the benchmark's own (git-ignored) output
// directory, removed when the run ends.
func scratch(root, workload string) (string, error) {
	dir := filepath.Join(root, fmt.Sprintf("tmp-%s-%d", workload, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
