package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"

	"streamrpq"
)

// Server is the HTTP front of a Broker. Endpoints:
//
//	POST   /ingest        text lines "ts src dst label [+|-]" = one batch
//	POST   /subscribe     NDJSON result stream; body/URL select filter + resume token
//	GET    /queries       live registrations
//	POST   /queries       {"pattern": "..."} → {"id": n}
//	DELETE /queries/{id}  online removal
//	GET    /metrics       Prometheus text format
//	GET    /healthz       200 while serving, 503 draining/poisoned
//
// The result stream is NDJSON: one Record per line, each carrying its
// resume token. A client that remembers the last token it processed
// reattaches with ?from=<token> (or "from" in the JSON body) and
// receives the byte-identical continuation. A token older than the
// replay window answers 410 Gone with the oldest resumable position in
// the body's "floor". Each line is encoded once, when its batch is
// published, and the same bytes are written to every subscriber.
//
// Every request body is bounded by maxBodyBytes: a larger one answers
// 413 and applies nothing.
type Server struct {
	broker *Broker
	mux    *http.ServeMux
	http   *http.Server
}

// NewServer wraps an evaluator in a broker and its HTTP handler.
func NewServer(ev *streamrpq.MultiEvaluator, cfg BrokerConfig) (*Server, error) {
	b, err := NewBroker(ev, cfg)
	if err != nil {
		return nil, err
	}
	s := &Server{broker: b, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /ingest", s.handleIngest)
	s.mux.HandleFunc("POST /subscribe", s.handleSubscribe)
	s.mux.HandleFunc("GET /queries", s.handleListQueries)
	s.mux.HandleFunc("POST /queries", s.handleAddQuery)
	s.mux.HandleFunc("DELETE /queries/{id}", s.handleRemoveQuery)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.http = &http.Server{Handler: s.mux}
	return s, nil
}

// Broker exposes the underlying broker (tests drive it directly).
func (s *Server) Broker() *Broker { return s.broker }

// Handler returns the route table (for httptest servers).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until Shutdown. It returns
// http.ErrServerClosed after a clean shutdown, like net/http.
func (s *Server) Serve(l net.Listener) error { return s.http.Serve(l) }

// Shutdown drains the server: the broker stops accepting work and
// terminates every subscriber stream with a final EOF record (taking a
// checkpoint when persistence is on), then the HTTP server waits for
// the handlers to flush those records, bounded by ctx.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.broker.Shutdown()
	if herr := s.http.Shutdown(ctx); err == nil {
		err = herr
	}
	return err
}

// maxBodyBytes bounds the body of POST /ingest, /subscribe and /queries,
// so one request cannot make the server buffer an unbounded batch.
const maxBodyBytes = 8 << 20

// readBody reads the whole request body, at most maxBodyBytes of it. On
// failure it has answered the request: 413 naming the limit for an
// oversized body, 400 for any other read error.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		writeJSONError(w, http.StatusRequestEntityTooLarge, map[string]string{
			"error": fmt.Sprintf("serve: request body exceeds the limit of %d bytes", tooBig.Limit),
			"limit": strconv.FormatInt(tooBig.Limit, 10),
		})
	case err != nil:
		httpError(w, http.StatusBadRequest, fmt.Errorf("serve: reading body: %w", err))
	default:
		return body, true
	}
	return nil, false
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSONError(w, code, map[string]string{"error": err.Error()})
}

func writeJSONError(w http.ResponseWriter, code int, body map[string]string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(body)
}

// brokerError maps broker sentinel errors onto status codes. A 410
// names the oldest resumable position next to the error.
func brokerError(w http.ResponseWriter, err error) {
	var gone *goneError
	switch {
	case errors.Is(err, ErrShutdown):
		httpError(w, http.StatusServiceUnavailable, err)
	case errors.As(err, &gone):
		writeJSONError(w, http.StatusGone, map[string]string{"error": err.Error(), "floor": gone.floor.Token()})
	case errors.Is(err, ErrFuture):
		httpError(w, http.StatusBadRequest, err)
	case strings.Contains(err.Error(), "out-of-order"):
		httpError(w, http.StatusBadRequest, err)
	default:
		httpError(w, http.StatusInternalServerError, err)
	}
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var tuples []streamrpq.Tuple
	line := 0
	for text := range bytes.Lines(body) {
		line++
		text = bytes.TrimSpace(text)
		if len(text) == 0 || text[0] == '#' {
			continue
		}
		t, err := streamrpq.ParseTuple(string(text))
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("line %d: %w", line, err))
			return
		}
		tuples = append(tuples, t)
	}
	rep, err := s.broker.Ingest(tuples)
	if err != nil {
		brokerError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rep)
}

// subscribeRequest is the optional JSON body of POST /subscribe. The
// URL query parameters "from", "id" (repeatable) and "pattern"
// (repeatable) are merged in, with the body taking precedence for
// "from".
type subscribeRequest struct {
	From     string   `json:"from,omitempty"`
	IDs      []int    `json:"ids,omitempty"`
	Patterns []string `json:"patterns,omitempty"`
}

func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req subscribeRequest
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("serve: bad subscribe body: %w", err))
			return
		}
	}
	q := r.URL.Query()
	if req.From == "" {
		req.From = q.Get("from")
	}
	for _, v := range q["id"] {
		id, err := strconv.Atoi(v)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("serve: bad id %q", v))
			return
		}
		req.IDs = append(req.IDs, id)
	}
	req.Patterns = append(req.Patterns, q["pattern"]...)

	var from *Seq
	if req.From != "" {
		seq, err := ParseToken(req.From)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		from = &seq
	}
	sub, err := s.broker.Subscribe(req.IDs, req.Patterns, from)
	if err != nil {
		brokerError(w, err)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	if fl != nil {
		fl.Flush() // commit headers before the first (possibly distant) record
	}
	ctx := r.Context()
	for {
		select {
		case line, ok := <-sub.ch:
			if !ok {
				if sub.final != nil {
					w.Write(appendRecord(nil, sub.final))
				}
				return
			}
			if _, err := w.Write(line); err != nil {
				s.broker.Unsubscribe(sub)
				return
			}
			// Flush per record only when the buffer has drained: a replay
			// burst coalesces into large writes, live records go out
			// immediately.
			if fl != nil && len(sub.ch) == 0 {
				fl.Flush()
			}
		case <-ctx.Done():
			s.broker.Unsubscribe(sub)
			return
		}
	}
}

func (s *Server) handleListQueries(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.broker.Queries())
}

func (s *Server) handleAddQuery(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req struct {
		Pattern string `json:"pattern"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("serve: bad query body: %w", err))
		return
	}
	if strings.TrimSpace(req.Pattern) == "" {
		httpError(w, http.StatusBadRequest, errors.New("serve: empty pattern"))
		return
	}
	id, err := s.broker.AddQuery(req.Pattern)
	if err != nil {
		if errors.Is(err, ErrShutdown) {
			httpError(w, http.StatusServiceUnavailable, err)
		} else {
			httpError(w, http.StatusBadRequest, err)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"id": id, "pattern": req.Pattern})
}

func (s *Server) handleRemoveQuery(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("serve: bad query id %q", r.PathValue("id")))
		return
	}
	if err := s.broker.RemoveQuery(id); err != nil {
		if errors.Is(err, ErrShutdown) {
			httpError(w, http.StatusServiceUnavailable, err)
		} else {
			httpError(w, http.StatusNotFound, err)
		}
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	m := s.broker.Snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "rpq_batches_total %d\n", m.Batches)
	fmt.Fprintf(w, "rpq_tuples_total %d\n", m.Tuples)
	fmt.Fprintf(w, "rpq_records_published_total %d\n", m.Published)
	fmt.Fprintf(w, "rpq_subscribers %d\n", m.Subscribers)
	fmt.Fprintf(w, "rpq_subscriber_evictions_total %d\n", m.Evictions)
	fmt.Fprintf(w, "rpq_queries %d\n", m.Queries)
	fmt.Fprintf(w, "rpq_window_edges %d\n", m.Edges)
	fmt.Fprintf(w, "rpq_results_total %d\n", m.Results)
	fmt.Fprintf(w, "rpq_groups %d\n", m.Groups)
	fmt.Fprintf(w, "rpq_shared_groups %d\n", m.SharedGroups)
	fmt.Fprintf(w, "rpq_dispatches_total %d\n", m.Dispatches)
	fmt.Fprintf(w, "rpq_relevance_skips_total %d\n", m.RelevanceSkips)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if err := s.broker.Healthy(); err != nil {
		httpError(w, http.StatusServiceUnavailable, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain")
	io.WriteString(w, "ok\n")
}
