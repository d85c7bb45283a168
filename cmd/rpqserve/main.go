// Command rpqserve runs the streaming RPQ engine as a network service:
// tuples go in over HTTP, results stream out over NDJSON
// subscriptions, and queries can be registered and removed online
// without pausing ingest (see internal/serve).
//
// Usage:
//
//	rpqserve -addr :8080 -window 1000 -slide 100 -q "knows+" -q "follows knows*"
//	rpqserve -addr :8080 -window 1000 -slide 100 -shards 8 -persist ./state
//	rpqserve -addr :8080 -persist ./state -resume
//
// Every result record carries a resume token; a subscriber that
// reattaches with ?from=<token> receives the byte-identical
// continuation of its stream. SIGINT/SIGTERM drains cleanly: in-flight
// batches finish, every subscriber stream ends with a final
// {"eof":true,"token":…} record, and — with -persist — a checkpoint is
// taken so the next -resume start continues exactly where this one
// stopped.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"streamrpq"
	"streamrpq/internal/serve"
)

type patterns []string

func (p *patterns) String() string     { return fmt.Sprint(*p) }
func (p *patterns) Set(s string) error { *p = append(*p, s); return nil }

func main() {
	var qs patterns
	addr := flag.String("addr", ":8080", "listen address")
	window := flag.Int64("window", 1000, "window size (time units)")
	slide := flag.Int64("slide", 100, "window slide (time units)")
	shards := flag.Int("shards", 0, "query shards (0 = evaluate inline on the ingest goroutine)")
	depth := flag.Int("depth", 0, "pipeline depth (0 = default: 2 with -shards, else 1)")
	persistDir := flag.String("persist", "", "persistence directory (empty = no durability)")
	resume := flag.Bool("resume", false, "recover from an existing persistence directory")
	ckEvery := flag.Int("checkpoint-every", 0, "automatic checkpoint every n batches (0 = manual only)")
	fsync := flag.Bool("fsync", false, "fsync WAL appends and snapshots")
	replayWin := flag.Int("replay-window", 65536, "records retained for subscriber reattachment")
	subBuf := flag.Int("sub-buffer", 1024, "per-subscriber record buffer")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown deadline")
	flag.Var(&qs, "q", "query pattern to register at startup (repeatable)")
	flag.Parse()

	var popts []streamrpq.PersistOption
	if *ckEvery > 0 {
		popts = append(popts, streamrpq.CheckpointEvery(*ckEvery))
	}
	if *fsync {
		popts = append(popts, streamrpq.WithFsync())
	}

	var ev *streamrpq.MultiEvaluator
	if *resume {
		if *persistDir == "" {
			fatal(fmt.Errorf("-resume requires -persist"))
		}
		var redelivered []streamrpq.BatchResult
		var err error
		ev, redelivered, err = streamrpq.Recover(*persistDir, popts...)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "rpqserve: recovered %s: %d tuples applied, %d queries, %d redelivered results\n",
			*persistDir, ev.AppliedTuples(), ev.NumQueries(), len(redelivered))
		if len(qs) > 0 {
			fmt.Fprintln(os.Stderr, "rpqserve: ignoring -q flags on -resume (the query set comes from the checkpoint; register more via POST /queries)")
		}
		if *shards > 0 || *depth > 0 {
			fmt.Fprintln(os.Stderr, "rpqserve: ignoring -shards and -depth on -resume (the shard count comes from the checkpoint; the pipeline depth reverts to its default)")
		}
	} else {
		compiled := make([]*streamrpq.Query, len(qs))
		for i, src := range qs {
			q, err := streamrpq.Compile(src)
			if err != nil {
				fatal(fmt.Errorf("query %q: %w", src, err))
			}
			compiled[i] = q
		}
		var err error
		ev, err = streamrpq.NewMultiEvaluator(*window, *slide, compiled...)
		if err != nil {
			fatal(err)
		}
		if *depth > 0 {
			if err := ev.WithPipelineDepth(*depth); err != nil {
				fatal(err)
			}
		}
		if *shards > 0 {
			if err := ev.WithShards(*shards); err != nil {
				fatal(err)
			}
		}
		// Dynamic mode must be on before the first checkpoint: the gen-0
		// snapshot records the retain-all flag, so a recovery that replays
		// the WAL rebuilds the same retained graph.
		if err := ev.EnableDynamicQueries(); err != nil {
			fatal(err)
		}
		if *persistDir != "" {
			if err := ev.WithPersistence(*persistDir, popts...); err != nil {
				fatal(err)
			}
		}
	}
	defer ev.Close()

	srv, err := serve.NewServer(ev, serve.BrokerConfig{
		ReplayWindow:     *replayWin,
		SubscriberBuffer: *subBuf,
	})
	if err != nil {
		fatal(err)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "rpqserve: listening on %s (window=%d slide=%d shards=%d queries=%d)\n",
		l.Addr(), *window, *slide, ev.NumShards(), ev.NumQueries())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "rpqserve: %s: draining (in-flight batches finish, streams get a final eof record%s)\n",
			s, checkpointNote(ev))
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "rpqserve: shutdown:", err)
		}
		<-errc // Serve returns http.ErrServerClosed
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			fatal(err)
		}
	}
	if err := ev.Close(); err != nil {
		fatal(err)
	}
}

func checkpointNote(ev *streamrpq.MultiEvaluator) string {
	if ev.Persistent() {
		return ", checkpoint written"
	}
	return ""
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rpqserve:", err)
	os.Exit(1)
}
