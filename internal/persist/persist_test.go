package persist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"streamrpq/internal/core"
	"streamrpq/internal/graph"
	"streamrpq/internal/stream"
	"streamrpq/internal/window"
)

func testSnapshot(gen uint64) *Snapshot {
	return &Snapshot{
		Gen:            gen,
		Spec:           window.Spec{Size: 100, Slide: 5},
		Shards:         4,
		Queries:        []string{"a/b*", "(a|b)+"},
		Vertices:       []string{"x", "y", "z"},
		Labels:         []string{"a", "b"},
		LastTS:         int64(1000 + gen),
		Started:        true,
		AppliedTuples:  int64(50 * gen),
		AppliedBatches: gen,
		State: &core.MultiState{
			Now:     int64(1000 + gen),
			Seen:    int64(50 * gen),
			Dropped: 3,
			Win:     window.State{Boundary: 995, Started: true},
			Edges: []graph.Edge{
				{Src: 0, Dst: 1, Label: 0, TS: 990},
				{Src: 1, Dst: 2, Label: 1, TS: 995},
			},
			Members: []*core.RAPQState{
				{
					Now:      int64(1000 + gen),
					Deadline: 900,
					Win:      window.State{Boundary: 995, Started: true},
					Stats:    core.Stats{Results: 7, TuplesSeen: 50},
					Self:     core.SelfPairs{Results: 2, Invalidations: 1},
					Trees: []core.TreeState{
						{Root: 0, Nodes: []core.TreeNodeState{
							{V: 1, S: 1, TS: 990, ParentV: 0, ParentS: 0},
							{V: 2, S: 1, TS: 990, ParentV: 1, ParentS: 1},
						}},
					},
				},
				{Now: int64(1000 + gen), Win: window.State{Boundary: 995, Started: true}},
			},
			MemberGroup:    []int{0, 1},
			Dispatches:     42,
			RelevanceSkips: 17,

			WithoutEmptyWord: true,
		},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	want := testSnapshot(3)
	got, err := DecodeSnapshot(EncodeSnapshot(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip diverged:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestClockListWrittenEmptyAndSkipped: the v4 coordinator section keeps
// the place of the retired per-label clock list after the retain flag.
// A writer leaves it empty; a list an older writer filled is read,
// bounds-checked and dropped, and the fields after it decode as written.
func TestClockListWrittenEmptyAndSkipped(t *testing.T) {
	st := testSnapshot(2).State
	cur := &encoder{}
	encodeMultiState(cur, st)
	tail := &encoder{} // the v4 fields that follow the list
	tail.u64(uint64(len(st.MemberGroup)))
	for _, g := range st.MemberGroup {
		tail.u64(uint64(g))
	}
	tail.i64(st.Dispatches)
	tail.i64(st.RelevanceSkips)
	at := len(cur.buf) - len(tail.buf) - 1
	if !bytes.Equal(cur.buf[at+1:], tail.buf) || cur.buf[at] != 0 {
		t.Fatalf("the clock list is not written empty before the v4 fields: % x", cur.buf[at:])
	}
	older := &encoder{buf: append([]byte(nil), cur.buf[:at]...)}
	older.u64(3)
	for _, ts := range []int64{990, -7, 1002} {
		older.i64(ts)
	}
	older.buf = append(older.buf, tail.buf...)
	d := &decoder{buf: older.buf}
	if got := decodeMultiState(d, snapVersion); d.err != nil || d.off != len(older.buf) || !reflect.DeepEqual(got, st) {
		t.Fatalf("an older writer's clock list: err %v, %d of %d bytes read,\ngot  %+v\nwant %+v",
			d.err, d.off, len(older.buf), got, st)
	}
	huge := &encoder{buf: append([]byte(nil), cur.buf[:at]...)}
	huge.u64(1 << 40)
	huge.buf = append(huge.buf, tail.buf...)
	d = &decoder{buf: huge.buf}
	if decodeMultiState(d, snapVersion); d.err == nil {
		t.Fatal("an implausible clock-list count decoded")
	}
}

func TestSnapshotCorruptionDetected(t *testing.T) {
	data := EncodeSnapshot(testSnapshot(1))
	for _, mutate := range []struct {
		name string
		f    func([]byte) []byte
		want string // substring the error must carry
	}{
		{"flip-middle-byte", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 0x40
			return c
		}, ""},
		{"truncate-tail", func(b []byte) []byte { return b[:len(b)-5] }, ""},
		{"truncate-short", func(b []byte) []byte { return b[:6] }, ""},
		{"flip-crc", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-1] ^= 0xff
			return c
		}, ""},
		// An intact file of the retired v3 layout: the checksum holds, so
		// only the version check stands between it and a misparse.
		{"version-3", func(b []byte) []byte {
			c := append([]byte(nil), b[:len(b)-4]...)
			c[len(snapMagic)] = 3
			return binary.LittleEndian.AppendUint32(c, crc32.ChecksumIEEE(c))
		}, "unsupported snapshot version 3"},
	} {
		_, err := DecodeSnapshot(mutate.f(data))
		if err == nil {
			t.Errorf("%s: corruption not detected", mutate.name)
		} else if !strings.Contains(err.Error(), mutate.want) {
			t.Errorf("%s: error %q does not mention %q", mutate.name, err, mutate.want)
		}
	}
}

func walTuples(n int, base int64) []stream.Tuple {
	out := make([]stream.Tuple, n)
	for i := range out {
		op := stream.Insert
		if i%7 == 3 {
			op = stream.Delete
		}
		out[i] = stream.Tuple{
			TS:    base + int64(i/2),
			Src:   stream.VertexID(i % 5),
			Dst:   stream.VertexID((i + 1) % 5),
			Label: stream.LabelID(i % 3),
			Op:    op,
		}
	}
	return out
}

// replayAll collects every record in dir starting from snapshot gen.
func replayAll(t *testing.T, dir string, opts Options) (*Snapshot, []*WalRecord, *Manager) {
	t.Helper()
	mgr, snap, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	var recs []*WalRecord
	if err := mgr.Replay(func(r *WalRecord) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return snap, recs, mgr
}

func TestWALAppendReplay(t *testing.T) {
	dir := t.TempDir()
	mgr, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.WriteSnapshot(testSnapshot(0)); err != nil {
		t.Fatal(err)
	}
	b1 := walTuples(10, 100)
	b2 := walTuples(4, 110)
	if err := mgr.AppendBatch([]string{"u", "v"}, []string{"c"}, b1); err != nil {
		t.Fatal(err)
	}
	if err := mgr.AppendCommit(104, 3); err != nil {
		t.Fatal(err)
	}
	if err := mgr.AppendBatch(nil, nil, b2); err != nil {
		t.Fatal(err)
	}
	// No commit for b2: the crash window.
	mgr.Close()

	_, recs, mgr2 := replayAll(t, dir, Options{})
	defer mgr2.Close()
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(recs))
	}
	if !recs[0].Batch || !reflect.DeepEqual(recs[0].Tuples, b1) ||
		!reflect.DeepEqual(recs[0].VDelta, []string{"u", "v"}) ||
		!reflect.DeepEqual(recs[0].LDelta, []string{"c"}) {
		t.Fatalf("batch 1 mismatch: %+v", recs[0])
	}
	if recs[1].Batch || recs[1].LastTS != 104 || recs[1].Results != 3 {
		t.Fatalf("commit mismatch: %+v", recs[1])
	}
	if !recs[2].Batch || !reflect.DeepEqual(recs[2].Tuples, b2) {
		t.Fatalf("batch 2 mismatch: %+v", recs[2])
	}
}

// TestWALTornTail: a partial trailing record (torn write at crash) is
// detected via the record checksum, discarded, and the segment is
// truncated so appending can resume cleanly.
func TestWALTornTail(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		dir := t.TempDir()
		mgr, err := Create(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := mgr.WriteSnapshot(testSnapshot(0)); err != nil {
			t.Fatal(err)
		}
		b1 := walTuples(8, 50)
		if err := mgr.AppendBatch(nil, nil, b1); err != nil {
			t.Fatal(err)
		}
		if err := mgr.AppendCommit(53, 1); err != nil {
			t.Fatal(err)
		}
		if err := mgr.AppendBatch([]string{"w"}, nil, walTuples(5, 60)); err != nil {
			t.Fatal(err)
		}
		mgr.Close()

		// Tear off a random number of trailing bytes of the last record.
		path := walPath(dir, 0)
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		cut := int64(rng.Intn(40) + 1)
		if err := os.Truncate(path, info.Size()-cut); err != nil {
			t.Fatal(err)
		}

		_, recs, mgr2 := replayAll(t, dir, Options{})
		if len(recs) < 2 || len(recs) > 3 {
			t.Fatalf("trial %d: replayed %d records", trial, len(recs))
		}
		if !reflect.DeepEqual(recs[0].Tuples, b1) || recs[1].Batch {
			t.Fatalf("trial %d: prefix corrupted by tear", trial)
		}
		// Appending after recovery must produce a clean, replayable log.
		b3 := walTuples(3, 70)
		if err := mgr2.AppendBatch(nil, nil, b3); err != nil {
			t.Fatal(err)
		}
		mgr2.Close()
		_, recs2, mgr3 := replayAll(t, dir, Options{})
		mgr3.Close()
		if len(recs2) != len(recs)+1 || !reflect.DeepEqual(recs2[len(recs2)-1].Tuples, b3) {
			t.Fatalf("trial %d: post-truncation append not replayable", trial)
		}
	}
}

// TestCorruptSnapshotFallsBack: when the newest snapshot fails its
// checksum, Open falls back to the previous generation and Replay
// covers the gap with the older WAL segments.
func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	mgr, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.WriteSnapshot(testSnapshot(0)); err != nil { // gen 0
		t.Fatal(err)
	}
	b1 := walTuples(6, 10)
	if err := mgr.AppendBatch(nil, nil, b1); err != nil {
		t.Fatal(err)
	}
	if err := mgr.AppendCommit(12, 0); err != nil {
		t.Fatal(err)
	}
	if err := mgr.WriteSnapshot(testSnapshot(0)); err != nil { // gen 1
		t.Fatal(err)
	}
	b2 := walTuples(4, 20)
	if err := mgr.AppendBatch(nil, nil, b2); err != nil {
		t.Fatal(err)
	}
	if err := mgr.AppendCommit(21, 0); err != nil {
		t.Fatal(err)
	}
	mgr.Close()

	// Healthy: recovery starts at gen 1 and replays only wal-1.
	snap, recs, m2 := replayAll(t, dir, Options{})
	m2.Close()
	if snap.Gen != 1 || len(recs) != 2 || !reflect.DeepEqual(recs[0].Tuples, b2) {
		t.Fatalf("healthy recovery: gen %d, %d records", snap.Gen, len(recs))
	}

	// Corrupt snap-1: recovery must fall back to gen 0 and replay
	// wal-0 then wal-1.
	path := SnapshotPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	snap, recs, m3 := replayAll(t, dir, Options{})
	if snap.Gen != 0 {
		t.Fatalf("fallback recovery landed on gen %d, want 0", snap.Gen)
	}
	if len(recs) != 4 || !reflect.DeepEqual(recs[0].Tuples, b1) || !reflect.DeepEqual(recs[2].Tuples, b2) {
		t.Fatalf("fallback replay saw %d records", len(recs))
	}
	// A checkpoint after fallback supersedes the corrupt generation.
	if err := m3.WriteSnapshot(testSnapshot(0)); err != nil {
		t.Fatal(err)
	}
	m3.Close()
	snap, _, m4 := replayAll(t, dir, Options{})
	m4.Close()
	if snap.Gen != 2 {
		t.Fatalf("post-fallback checkpoint has gen %d, want 2", snap.Gen)
	}
}

// TestPruneKeepsFallbackWindow: old generations are pruned but the
// previous snapshot (and the WAL segments needed to recover from it)
// always survive.
func TestPruneKeepsFallbackWindow(t *testing.T) {
	dir := t.TempDir()
	mgr, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 5; g++ {
		if err := mgr.WriteSnapshot(testSnapshot(0)); err != nil {
			t.Fatal(err)
		}
		if err := mgr.AppendBatch(nil, nil, walTuples(2, int64(10*g))); err != nil {
			t.Fatal(err)
		}
		if err := mgr.AppendCommit(int64(10*g), 0); err != nil {
			t.Fatal(err)
		}
	}
	mgr.Close()
	snaps, wals, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snaps, []uint64{3, 4}) {
		t.Fatalf("kept snapshots %v, want [3 4]", snaps)
	}
	if !reflect.DeepEqual(wals, []uint64{3, 4}) {
		t.Fatalf("kept WAL segments %v, want [3 4]", wals)
	}
	// Corrupting the newest must still leave a recoverable directory.
	data, _ := os.ReadFile(SnapshotPath(dir, 4))
	data[len(data)-2] ^= 0xff
	os.WriteFile(SnapshotPath(dir, 4), data, 0o644)
	snap, recs, m2 := replayAll(t, dir, Options{})
	m2.Close()
	if snap.Gen != 3 || len(recs) != 4 {
		t.Fatalf("fallback after prune: gen %d, %d records", snap.Gen, len(recs))
	}
}

// TestReplayRefusesMidLogCorruption: a corrupt record in a NON-final
// WAL segment is real data loss (later segments depend on those
// batches); recovery must abort instead of replaying across the gap.
// The same corruption in the final segment is the ordinary torn tail
// and recovers fine.
func TestReplayRefusesMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	mgr, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.WriteSnapshot(testSnapshot(0)); err != nil { // gen 0 + wal-0
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := mgr.AppendBatch(nil, nil, walTuples(4, int64(10+10*i))); err != nil {
			t.Fatal(err)
		}
		if err := mgr.AppendCommit(int64(11+10*i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.WriteSnapshot(testSnapshot(0)); err != nil { // gen 1 + wal-1
		t.Fatal(err)
	}
	if err := mgr.AppendBatch(nil, nil, walTuples(4, 50)); err != nil {
		t.Fatal(err)
	}
	mgr.Close()

	// Corrupt snap-1 (forcing fallback to gen 0 across wal-0 and wal-1)
	// and a MIDDLE record of wal-0.
	sdata, _ := os.ReadFile(SnapshotPath(dir, 1))
	sdata[len(sdata)/2] ^= 0x04
	os.WriteFile(SnapshotPath(dir, 1), sdata, 0o644)
	wdata, _ := os.ReadFile(walPath(dir, 0))
	wdata[len(wdata)/2] ^= 0x04
	os.WriteFile(walPath(dir, 0), wdata, 0o644)

	mgr2, snap, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Gen != 0 {
		t.Fatalf("fallback landed on gen %d, want 0", snap.Gen)
	}
	if err := mgr2.Replay(func(*WalRecord) error { return nil }); err == nil {
		t.Fatal("Replay silently skipped a mid-log corruption gap")
	}
	mgr2.Close()
}

// TestTornFinalSegmentHeaderRecovers: a kill between snapshot rename
// and the new segment's header write leaves a zero-byte (or
// header-prefix) wal file; that is an ordinary crash signature for the
// FINAL segment and recovery must recreate it and continue —
// non-prefix garbage stays fatal (real corruption).
func TestTornFinalSegmentHeaderRecovers(t *testing.T) {
	for _, tear := range []int{0, 3, 8} { // empty, mid-magic, past version
		dir := t.TempDir()
		mgr, err := Create(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := mgr.WriteSnapshot(testSnapshot(0)); err != nil { // gen 0
			t.Fatal(err)
		}
		b1 := walTuples(4, 10)
		if err := mgr.AppendBatch(nil, nil, b1); err != nil {
			t.Fatal(err)
		}
		if err := mgr.AppendCommit(11, 0); err != nil {
			t.Fatal(err)
		}
		if err := mgr.WriteSnapshot(testSnapshot(0)); err != nil { // gen 1 + wal-1
			t.Fatal(err)
		}
		mgr.Close()
		if err := os.Truncate(walPath(dir, 1), int64(tear)); err != nil {
			t.Fatal(err)
		}

		snap, recs, m2 := replayAll(t, dir, Options{})
		if snap.Gen != 1 || len(recs) != 0 {
			t.Fatalf("tear %d: recovered gen %d with %d records, want gen 1 with 0", tear, snap.Gen, len(recs))
		}
		// The recreated segment accepts appends and replays cleanly.
		if err := m2.AppendBatch(nil, nil, walTuples(2, 20)); err != nil {
			t.Fatalf("tear %d: append after recreation: %v", tear, err)
		}
		m2.Close()
		_, recs2, m3 := replayAll(t, dir, Options{})
		m3.Close()
		if len(recs2) != 1 {
			t.Fatalf("tear %d: post-recreation replay saw %d records, want 1", tear, len(recs2))
		}
	}

	// Garbage that is NOT a header prefix is real corruption: refuse.
	dir := t.TempDir()
	mgr, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.WriteSnapshot(testSnapshot(0)); err != nil {
		t.Fatal(err)
	}
	mgr.Close()
	if err := os.WriteFile(walPath(dir, 0), []byte("XXXX"), 0o644); err != nil {
		t.Fatal(err)
	}
	mgr2, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr2.Replay(func(*WalRecord) error { return nil }); err == nil {
		t.Fatal("garbage WAL header accepted as torn crash signature")
	}
	mgr2.Close()
}

// TestScanIgnoresTempFiles: a leftover .tmp from a crashed atomic
// snapshot write must neither wedge Create ("already contains state")
// nor count as a generation for Open.
func TestScanIgnoresTempFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snap-00000000.ckpt.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal-00000000.log.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	snaps, wals, err := scanDir(dir)
	if err != nil || len(snaps) != 0 || len(wals) != 0 {
		t.Fatalf("scanDir counted temp files: snaps %v wals %v (err %v)", snaps, wals, err)
	}
	mgr, err := Create(dir, Options{})
	if err != nil {
		t.Fatalf("Create wedged by temp file: %v", err)
	}
	if err := mgr.WriteSnapshot(testSnapshot(0)); err != nil {
		t.Fatal(err)
	}
	mgr.Close()
	if _, _, err := Open(dir, Options{}); err != nil {
		t.Fatalf("Open after temp-file recovery: %v", err)
	}
}

// TestPruneDoesNotCountCorruptSnapshots: a corrupt generation must not
// consume a slot of the keep window — the valid fallback generation
// survives pruning even when newer (corrupt) files outnumber it.
func TestPruneDoesNotCountCorruptSnapshots(t *testing.T) {
	dir := t.TempDir()
	mgr, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.WriteSnapshot(testSnapshot(0)); err != nil { // gen 0
		t.Fatal(err)
	}
	if err := mgr.AppendBatch(nil, nil, walTuples(3, 10)); err != nil {
		t.Fatal(err)
	}
	if err := mgr.AppendCommit(11, 0); err != nil {
		t.Fatal(err)
	}
	if err := mgr.WriteSnapshot(testSnapshot(0)); err != nil { // gen 1
		t.Fatal(err)
	}
	mgr.Close()

	// Corrupt gen 1, recover (falls back to 0), then checkpoint: prune
	// must keep valid gen 0, not the corrupt gen 1.
	data, _ := os.ReadFile(SnapshotPath(dir, 1))
	data[len(data)/2] ^= 0x08
	os.WriteFile(SnapshotPath(dir, 1), data, 0o644)

	snap, _, m2 := replayAll(t, dir, Options{})
	if snap.Gen != 0 {
		t.Fatalf("recovered gen %d, want 0", snap.Gen)
	}
	if err := m2.WriteSnapshot(testSnapshot(0)); err != nil { // gen 2 + prune
		t.Fatal(err)
	}
	m2.Close()
	if _, err := ReadSnapshotFile(SnapshotPath(dir, 0)); err != nil {
		t.Fatalf("prune deleted the only valid fallback generation: %v", err)
	}
	// And if gen 2 is now also corrupted, recovery still works from 0.
	data, _ = os.ReadFile(SnapshotPath(dir, 2))
	data[len(data)-1] ^= 0xff
	os.WriteFile(SnapshotPath(dir, 2), data, 0o644)
	snap, _, m3 := replayAll(t, dir, Options{})
	m3.Close()
	if snap.Gen != 0 {
		t.Fatalf("double-corruption recovery landed on gen %d, want 0", snap.Gen)
	}
}

func TestCreateRefusesExistingState(t *testing.T) {
	dir := t.TempDir()
	mgr, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.WriteSnapshot(testSnapshot(0)); err != nil {
		t.Fatal(err)
	}
	mgr.Close()
	if _, err := Create(dir, Options{}); err == nil {
		t.Fatal("Create over an existing persistence directory accepted")
	}
	if _, _, err := Open(filepath.Join(dir, "nope"), Options{}); err == nil {
		t.Fatal("Open of a missing directory accepted")
	}
}
