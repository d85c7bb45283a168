// Package serve is the network serving layer of the streaming RPQ
// engine: a subscription broker over the deterministic merged result
// stream of a streamrpq.MultiEvaluator, exposed over HTTP with
// newline-delimited JSON (stdlib only).
//
// Every published result — matches and deletion-triggered
// invalidations alike — carries a monotone sequence position derived
// from the evaluator's persisted batch counter: (batch, index), where
// batch is the 1-based ordinal of the IngestBatch that produced the
// record and index is the record's rank within that batch's canonical
// merge order. The position doubles as a resume token
// ("v1-<batch>-<index>"): because the result stream is a pure function
// of the input stream (PR 1/PR 6) and the merge order is canonical, a
// subscriber that detaches after token t and reattaches with ?from=t
// receives the byte-identical continuation of its stream.
//
// Each published record exists once, as its encoded NDJSON line: the
// broker writes a batch's lines into one slab when it publishes the
// batch, and the replay ring (a fixed-capacity circular buffer of
// ReplayWindow entries) and every subscriber buffer hold references to
// those immutable bytes. Encode once, write N times.
package serve

import (
	"fmt"
	"strconv"
	"strings"
)

// Seq is a sequence position in the published result stream. The zero
// Seq orders before every published record (batches are 1-based).
type Seq struct {
	Batch uint64 // 1-based ordinal of the producing IngestBatch
	Index uint64 // rank within the batch's canonical merge order
}

// Less reports whether s orders strictly before o.
func (s Seq) Less(o Seq) bool {
	if s.Batch != o.Batch {
		return s.Batch < o.Batch
	}
	return s.Index < o.Index
}

// Token renders the position as a resume token.
func (s Seq) Token() string { return string(s.appendToken(nil)) }

// appendToken appends the resume token's bytes to dst.
func (s Seq) appendToken(dst []byte) []byte {
	dst = append(dst, "v1-"...)
	dst = strconv.AppendUint(dst, s.Batch, 10)
	dst = append(dst, '-')
	return strconv.AppendUint(dst, s.Index, 10)
}

// ParseToken parses a resume token produced by Seq.Token. The alias
// "start" names the zero position (before every record).
func ParseToken(tok string) (Seq, error) {
	if tok == "start" {
		return Seq{}, nil
	}
	rest, ok := strings.CutPrefix(tok, "v1-")
	if !ok {
		return Seq{}, fmt.Errorf("serve: bad resume token %q: want v1-<batch>-<index>", tok)
	}
	bs, is, ok := strings.Cut(rest, "-")
	if !ok {
		return Seq{}, fmt.Errorf("serve: bad resume token %q: want v1-<batch>-<index>", tok)
	}
	batch, err := strconv.ParseUint(bs, 10, 64)
	if err != nil {
		return Seq{}, fmt.Errorf("serve: bad resume token %q: batch: %v", tok, err)
	}
	index, err := strconv.ParseUint(is, 10, 64)
	if err != nil {
		return Seq{}, fmt.Errorf("serve: bad resume token %q: index: %v", tok, err)
	}
	return Seq{Batch: batch, Index: index}, nil
}
