package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"streamrpq/internal/core"
	"streamrpq/internal/graph"
	"streamrpq/internal/stream"
	"streamrpq/internal/window"
)

// Snapshot file format (snap-<G>.ckpt):
//
//	magic    "SRPQSNAP"      8 bytes
//	version  uint8           currently 4 (snapVersion)
//	payload  varint-encoded sections (see encodeSnapshot)
//	crc32    uint32 LE       IEEE, over magic+version+payload
//
// The trailing whole-file checksum means any bit flip or truncation is
// detected before a single field is trusted; recovery then falls back
// to the previous generation's snapshot.

const (
	snapMagic = "SRPQSNAP"
	// Version 2 added the per-tree result-support counts (see
	// core.SupportCount). Restore recomputes them from the node lists and
	// cross-checks against the persisted values, so they ride along as a
	// consistency seal rather than redundant state; version-1 files
	// predate canonical deletions and are rejected. Version 3 added the
	// retain-all flag and the per-label stream clocks that mid-stream
	// query registration needs (core.MultiState.Retain/LabelTS). The
	// flag is written true; false only occurs in files of older writers
	// (and of engines recovered from one), which recover with
	// registration closed. Older versions are rejected, as before.
	// Version 4 added multi-query
	// sharing: the facade sharing flag, the query→group mapping
	// (core.MultiState.MemberGroup — Members then holds one Δ state per
	// GROUP, not per query), and the dispatch/relevance-skip counters;
	// version-3 files (one Δ state per query, no mapping) are rejected.
	snapVersion = 4

	// snapVersionMin is the oldest snapshot version recovery accepts.
	snapVersionMin = 4
)

// Snapshot is the full checkpointable state of a facade evaluator: the
// metadata needed to reconstruct it (window spec, query sources in
// registration order, backend kind and shard count), the dictionaries,
// the facade stream clock, and the coordinator state (shared graph +
// window clock + per-query Δ indexes).
type Snapshot struct {
	Gen            uint64
	Spec           window.Spec
	Sharded        bool // format v4 keeps the byte: the facade writes Shards > 1, recovery reads Shards
	Shards         int
	Sharing        bool     // format v4's sharing flag; the facade writes true and ignores it on recovery
	Queries        []string // source expressions, registration order
	Vertices       []string // vertex dictionary, id order
	Labels         []string // label dictionary, id order
	LastTS         int64
	Started        bool
	AppliedTuples  int64 // tuples ingested since stream start (for resume-skip)
	AppliedBatches uint64
	State          *core.MultiState
}

func encodeStats(e *encoder, st core.StatState) {
	e.i64(st.Results)
	e.i64(st.Invalidations)
	e.i64(st.TuplesSeen)
	e.i64(st.TuplesDropped)
	e.i64(st.ExpiryRuns)
	e.i64(st.ExpiryTimeNS)
	e.i64(st.InsertCalls)
	e.i64(st.ConflictsFound)
	e.i64(st.Unmarkings)
}

func decodeStats(d *decoder) core.StatState {
	return core.StatState{
		Results:        d.i64(),
		Invalidations:  d.i64(),
		TuplesSeen:     d.i64(),
		TuplesDropped:  d.i64(),
		ExpiryRuns:     d.i64(),
		ExpiryTimeNS:   d.i64(),
		InsertCalls:    d.i64(),
		ConflictsFound: d.i64(),
		Unmarkings:     d.i64(),
	}
}

func encodeSupport(e *encoder, sup []core.SupportCount) {
	e.u64(uint64(len(sup)))
	for _, sc := range sup {
		e.u64(uint64(sc.V))
		e.u64(uint64(uint32(sc.N)))
	}
}

func decodeSupport(d *decoder) []core.SupportCount {
	n := d.count(2)
	if n == 0 {
		return nil
	}
	sup := make([]core.SupportCount, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		sup = append(sup, core.SupportCount{
			V: stream.VertexID(d.u64()),
			N: int32(uint32(d.u64())),
		})
	}
	return sup
}

func encodeWinState(e *encoder, st window.State) {
	e.i64(st.Boundary)
	e.bool(st.Started)
}

func decodeWinState(d *decoder) window.State {
	return window.State{Boundary: d.i64(), Started: d.bool()}
}

// encodeEdges delta-encodes the timestamp column: snapshot edges are
// sorted by timestamp, so deltas stay small.
func encodeEdges(e *encoder, edges []graph.Edge) {
	e.u64(uint64(len(edges)))
	var last int64
	for i, ed := range edges {
		if i == 0 {
			e.i64(ed.TS)
		} else {
			e.i64(ed.TS - last)
		}
		last = ed.TS
		e.u64(uint64(ed.Src))
		e.u64(uint64(ed.Dst))
		e.u64(uint64(uint32(ed.Label)))
	}
}

func decodeEdges(d *decoder) []graph.Edge {
	n := d.count(4)
	if n == 0 {
		return nil
	}
	edges := make([]graph.Edge, 0, n)
	var last int64
	for i := 0; i < n; i++ {
		ts := d.i64()
		if i > 0 {
			ts += last
		}
		last = ts
		edges = append(edges, graph.Edge{
			TS:    ts,
			Src:   stream.VertexID(d.u64()),
			Dst:   stream.VertexID(d.u64()),
			Label: stream.LabelID(uint32(d.u64())),
		})
	}
	return edges
}

func encodeRAPQState(e *encoder, st *core.RAPQState) {
	e.i64(st.Now)
	e.i64(st.Deadline)
	encodeWinState(e, st.Win)
	encodeStats(e, st.Stats)
	e.u64(uint64(len(st.Trees)))
	for _, tr := range st.Trees {
		e.u64(uint64(tr.Root))
		e.u64(uint64(len(tr.Nodes)))
		for _, n := range tr.Nodes {
			e.u64(uint64(n.V))
			e.u64(uint64(uint32(n.S)))
			e.i64(n.TS)
			e.u64(uint64(n.ParentV))
			e.u64(uint64(uint32(n.ParentS)))
		}
		encodeSupport(e, tr.Support)
	}
}

func decodeRAPQState(d *decoder) *core.RAPQState {
	st := &core.RAPQState{
		Now:      d.i64(),
		Deadline: d.i64(),
		Win:      decodeWinState(d),
		Stats:    decodeStats(d),
	}
	ntrees := d.count(2)
	for i := 0; i < ntrees && d.err == nil; i++ {
		tr := core.TreeState{Root: stream.VertexID(d.u64())}
		nnodes := d.count(5)
		tr.Nodes = make([]core.TreeNodeState, 0, nnodes)
		for j := 0; j < nnodes && d.err == nil; j++ {
			tr.Nodes = append(tr.Nodes, core.TreeNodeState{
				V:       stream.VertexID(d.u64()),
				S:       int32(uint32(d.u64())),
				TS:      d.i64(),
				ParentV: stream.VertexID(d.u64()),
				ParentS: int32(uint32(d.u64())),
			})
		}
		tr.Support = decodeSupport(d)
		st.Trees = append(st.Trees, tr)
	}
	return st
}

func encodeMultiState(e *encoder, st *core.MultiState) {
	e.i64(st.Now)
	e.i64(st.Seen)
	e.i64(st.Dropped)
	encodeWinState(e, st.Win)
	encodeEdges(e, st.Edges)
	e.u64(uint64(len(st.Members)))
	for _, m := range st.Members {
		encodeRAPQState(e, m)
	}
	e.bool(st.Retain)
	e.u64(uint64(len(st.LabelTS)))
	for _, ts := range st.LabelTS {
		e.i64(ts)
	}
	// v4: the query→group mapping (rank of live query → index into
	// Members) plus the coordinator's dispatch counters.
	e.u64(uint64(len(st.MemberGroup)))
	for _, g := range st.MemberGroup {
		e.u64(uint64(g))
	}
	e.i64(st.Dispatches)
	e.i64(st.RelevanceSkips)
}

// decodeMultiState parses a coordinator state section: one Δ state per
// group, the query→group mapping and the dispatch counters.
func decodeMultiState(d *decoder) *core.MultiState {
	st := &core.MultiState{
		Now:     d.i64(),
		Seen:    d.i64(),
		Dropped: d.i64(),
		Win:     decodeWinState(d),
		Edges:   decodeEdges(d),
	}
	nmembers := d.count(2)
	for i := 0; i < nmembers && d.err == nil; i++ {
		st.Members = append(st.Members, decodeRAPQState(d))
	}
	st.Retain = d.bool()
	nlabels := d.count(1)
	for i := 0; i < nlabels && d.err == nil; i++ {
		st.LabelTS = append(st.LabelTS, d.i64())
	}
	nmap := d.count(1)
	st.MemberGroup = make([]int, 0, nmap)
	for i := 0; i < nmap && d.err == nil; i++ {
		st.MemberGroup = append(st.MemberGroup, int(d.u64()))
	}
	st.Dispatches = d.i64()
	st.RelevanceSkips = d.i64()
	return st
}

// verifyEnvelope checks a snapshot file's framing — minimum length,
// magic, and the trailing whole-file CRC32 — and returns the body (the
// bytes under the checksum, magic included) for decoding. Both readers
// of a snapshot file (the full decode and the pruning probe) validate
// through this one helper so the rules cannot diverge between them.
func verifyEnvelope(data []byte) ([]byte, error) {
	if len(data) < len(snapMagic)+1+4 {
		return nil, fmt.Errorf("persist: %s file too short (%d bytes)", snapMagic, len(data))
	}
	if string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("persist: bad magic %q (want %s)", data[:len(snapMagic)], snapMagic)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("persist: %s checksum mismatch (file %08x, computed %08x)", snapMagic, want, got)
	}
	return body, nil
}

// EncodeSnapshot renders the snapshot into the versioned, checksummed
// file format.
func EncodeSnapshot(s *Snapshot) []byte {
	e := &encoder{buf: make([]byte, 0, 4096)}
	e.buf = append(e.buf, snapMagic...)
	e.byte(snapVersion)
	e.u64(s.Gen)
	e.i64(s.Spec.Size)
	e.i64(s.Spec.Slide)
	e.bool(s.Sharded)
	e.u64(uint64(s.Shards))
	e.bool(s.Sharing)
	e.strs(s.Queries)
	e.strs(s.Vertices)
	e.strs(s.Labels)
	e.i64(s.LastTS)
	e.bool(s.Started)
	e.i64(s.AppliedTuples)
	e.u64(s.AppliedBatches)
	encodeMultiState(e, s.State)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, crc32.ChecksumIEEE(e.buf))
	return e.buf
}

// DecodeSnapshot parses and verifies a snapshot file's contents.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	body, err := verifyEnvelope(data)
	if err != nil {
		return nil, err
	}
	d := &decoder{buf: body, off: len(snapMagic)}
	if v := d.byte(); v < snapVersionMin || v > snapVersion {
		return nil, fmt.Errorf("persist: unsupported snapshot version %d", v)
	}
	s := &Snapshot{
		Gen:  d.u64(),
		Spec: window.Spec{Size: d.i64(), Slide: d.i64()},
	}
	s.Sharded = d.bool()
	s.Shards = int(d.u64())
	s.Sharing = d.bool()
	s.Queries = d.strs()
	s.Vertices = d.strs()
	s.Labels = d.strs()
	s.LastTS = d.i64()
	s.Started = d.bool()
	s.AppliedTuples = d.i64()
	s.AppliedBatches = d.u64()
	s.State = decodeMultiState(d)
	if d.err != nil {
		return nil, d.err
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("persist: %d trailing bytes after snapshot payload", d.remaining())
	}
	return s, nil
}

// SnapshotPath returns the file name of generation g in dir.
func SnapshotPath(dir string, g uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%08d.ckpt", g))
}

func walPath(dir string, g uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%08d.log", g))
}

// writeFileAtomic writes data to path via a temp file + rename so a
// crash mid-write never leaves a half-written file under the final name.
func writeFileAtomic(path string, data []byte, fsync bool) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if fsync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if fsync {
		if d, err := os.Open(filepath.Dir(path)); err == nil {
			d.Sync()
			d.Close()
		}
	}
	return nil
}

// ReadSnapshotFile reads and verifies one snapshot file.
func ReadSnapshotFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeSnapshot(data)
}

// snapshotFileGen verifies a snapshot file's integrity (magic, version,
// whole-file CRC) and returns its generation without materializing the
// engine state — the cheap validity probe pruning runs per checkpoint.
func snapshotFileGen(path string) (uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	body, err := verifyEnvelope(data)
	if err != nil {
		return 0, fmt.Errorf("%w (%s)", err, path)
	}
	d := &decoder{buf: body, off: len(snapMagic)}
	if v := d.byte(); v < snapVersionMin || v > snapVersion {
		return 0, fmt.Errorf("persist: %s: unsupported snapshot version %d", path, v)
	}
	g := d.u64()
	return g, d.err
}
