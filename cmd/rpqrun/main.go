// Command rpqrun evaluates a persistent RPQ over a stream file and
// prints the result stream: one "+ from to @ts" line per discovered
// pair (and "- from to @ts" for pairs retracted by explicit deletions).
//
// Usage:
//
//	rpqgen -dataset so -edges 10000 -out so.stream
//	rpqrun -query "a2q/(c2a|c2q)*" -window 500 -slide 50 so.stream
//	rpqrun -query "knows+" -semantics simple -stats ldbc.stream
//
// With -persist the engine checkpoints its state (window graph + Δ
// index) and write-ahead-logs every batch to the given directory, so a
// killed run can be resumed:
//
//	rpqrun -query "a2q+" -persist state/ big.stream        # kill -9 it
//	rpqrun -resume -persist state/ big.stream              # resumes mid-stream
//
// On resume the engine recovers from the latest valid checkpoint,
// replays the WAL suffix, and skips the already-applied prefix of the
// input file (the query and window come from the checkpoint metadata).
// rpqrun reads from stdin when no file is given (persisted runs need a
// file to make -resume meaningful, but stdin works for -persist too).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"streamrpq"
)

func main() {
	var (
		query     = flag.String("query", "", "RPQ regular expression (required unless -resume)")
		winSize   = flag.Int64("window", 1000, "window size |W| in stream time units")
		winSlide  = flag.Int64("slide", 1, "slide interval β in stream time units")
		semantics = flag.String("semantics", "arbitrary", "path semantics: arbitrary or simple")
		stats     = flag.Bool("stats", false, "print engine statistics at the end")
		quiet     = flag.Bool("quiet", false, "suppress the result stream (use with -stats)")
		persist   = flag.String("persist", "", "persistence directory: checkpoint + WAL the engine state")
		resume    = flag.Bool("resume", false, "recover from -persist dir and continue the stream (skips the applied prefix)")
		ckptEvery = flag.Int("checkpoint-every", 64, "with -persist: automatic checkpoint every N batches (0 = final checkpoint only)")
		batchSize = flag.Int("batch", 256, "with -persist: ingest batch size")
		fsync     = flag.Bool("fsync", false, "with -persist: fsync every WAL append and checkpoint")
	)
	flag.Parse()

	if *persist != "" {
		runPersisted(*query, *winSize, *winSlide, *semantics, *persist, *resume,
			*ckptEvery, *batchSize, *fsync, *stats, *quiet)
		return
	}
	if *resume {
		fatal(fmt.Errorf("-resume requires -persist"))
	}
	if *query == "" {
		fmt.Fprintln(os.Stderr, "rpqrun: -query is required")
		os.Exit(2)
	}

	q, err := streamrpq.Compile(*query)
	if err != nil {
		fatal(err)
	}
	sem := streamrpq.Arbitrary
	switch *semantics {
	case "arbitrary":
	case "simple":
		sem = streamrpq.Simple
	default:
		fatal(fmt.Errorf("unknown semantics %q", *semantics))
	}

	ev, err := streamrpq.NewEvaluator(q,
		streamrpq.WithWindow(*winSize, *winSlide),
		streamrpq.WithSemantics(sem),
		streamrpq.WithOnInvalidate(func(m streamrpq.Match) {
			if !*quiet {
				fmt.Printf("- %s %s @%d\n", m.From, m.To, m.TS)
			}
		}))
	if err != nil {
		fatal(err)
	}

	n, err := streamrpq.Replay(input(), ev, func(m streamrpq.Match) {
		if !*quiet {
			fmt.Printf("+ %s %s @%d\n", m.From, m.To, m.TS)
		}
	})
	if err != nil {
		fatal(err)
	}

	if *stats {
		st := ev.Stats()
		fmt.Fprintf(os.Stderr, "tuples=%d dropped=%d results=%d invalidations=%d trees=%d nodes=%d expiry=%v\n",
			n, st.TuplesDropped, st.Results, st.Invalidations, st.Trees, st.Nodes, st.ExpiryTime)
	}
}

// runPersisted is the durable evaluation path: a single-query
// MultiEvaluator (the facade that carries the persistence subsystem)
// with checkpoints and a write-ahead log under dir.
func runPersisted(query string, winSize, winSlide int64, semantics, dir string, resume bool,
	ckptEvery, batchSize int, fsync, stats, quiet bool) {
	if semantics != "arbitrary" {
		fatal(fmt.Errorf("-persist currently supports arbitrary semantics only (the multi-query engine is RAPQ-based)"))
	}
	var opts []streamrpq.PersistOption
	if ckptEvery > 0 {
		opts = append(opts, streamrpq.CheckpointEvery(ckptEvery))
	}
	if fsync {
		opts = append(opts, streamrpq.WithFsync())
	}

	emit := func(br streamrpq.BatchResult) {
		if quiet {
			return
		}
		// One tuple's retractions print before its matches, as the
		// evaluator's invalidation callback fires inside its ingest.
		for _, m := range br.Invalidations {
			fmt.Printf("- %s %s @%d\n", m.From, m.To, m.TS)
		}
		for _, m := range br.Matches {
			fmt.Printf("+ %s %s @%d\n", m.From, m.To, m.TS)
		}
	}

	var m *streamrpq.MultiEvaluator
	var skip int64
	if resume {
		var redelivered []streamrpq.BatchResult
		var err error
		m, redelivered, err = streamrpq.Recover(dir, opts...)
		if err != nil {
			fatal(err)
		}
		skip = m.AppliedTuples()
		fmt.Fprintf(os.Stderr, "rpqrun: recovered %d queries at %d applied tuples; redelivering %d uncommitted result groups\n",
			m.NumQueries(), skip, len(redelivered))
		for _, br := range redelivered {
			emit(br)
		}
	} else {
		if query == "" {
			fmt.Fprintln(os.Stderr, "rpqrun: -query is required")
			os.Exit(2)
		}
		q, err := streamrpq.Compile(query)
		if err != nil {
			fatal(err)
		}
		m, err = streamrpq.NewMultiEvaluator(winSize, winSlide, q)
		if err != nil {
			fatal(err)
		}
		if err := m.WithPersistence(dir, opts...); err != nil {
			fatal(err)
		}
	}
	defer m.Close()

	n, err := streamrpq.ReplayMulti(input(), m, batchSize, skip, emit)
	if err != nil {
		fatal(err)
	}
	// A final checkpoint makes the next resume instant (empty WAL
	// suffix) even when -checkpoint-every never fired.
	if err := m.Checkpoint(); err != nil {
		fatal(err)
	}

	if stats {
		st := m.Stats()
		fmt.Fprintf(os.Stderr, "tuples=%d (total applied %d) dropped=%d results=%d invalidations=%d trees=%d nodes=%d expiry=%v\n",
			n, m.AppliedTuples(), st.TuplesDropped, st.Results, st.Invalidations, st.Trees, st.Nodes, st.ExpiryTime)
	}
}

func input() io.Reader {
	if flag.NArg() == 0 {
		return os.Stdin
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	// The process exits when main returns; the descriptor is released
	// then.
	return f
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rpqrun:", err)
	os.Exit(1)
}
