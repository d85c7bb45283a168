package persist

import (
	"errors"
	"fmt"
	"os"
	"sort"

	"streamrpq/internal/stream"
)

// Options configures a persistence Manager.
type Options struct {
	// Fsync forces an fsync after every WAL record and snapshot write.
	// Off by default: the in-process crash model (and the tests) only
	// need the data to have left the process; turn it on when surviving
	// OS/power failure matters more than ingest latency.
	Fsync bool
}

// keepSnapshots is how many snapshot generations the manager retains
// (the current one included): two, so a corrupt latest snapshot can
// always fall back one generation.
const keepSnapshots = 2

// Manager owns one persistence directory: it appends to the current WAL
// segment, writes snapshot generations, and prunes superseded files.
// It is driven by a single goroutine, like the engines.
type Manager struct {
	dir    string
	opts   Options
	gen    uint64 // generation of the snapshot the current WAL follows
	maxGen uint64 // highest generation among all files ever seen
	virgin bool   // Create path before the first snapshot: next gen is 0
	wal    *walWriter
	lock   *os.File // exclusive flock on the directory (unix)
	// knownValid caches generations this process wrote (or loaded)
	// successfully, so prune does not re-read and re-checksum those
	// snapshot files on every checkpoint.
	knownValid map[uint64]bool
}

// Create initializes a fresh persistence directory. It fails if dir
// already holds persisted state (use Open to resume from it). The
// caller must write the generation-0 snapshot (the evaluator metadata
// and empty state) via WriteSnapshot before appending batches.
func Create(dir string, opts Options) (*Manager, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lock, err := acquireDirLock(dir)
	if err != nil {
		return nil, err
	}
	snaps, wals, err := scanDir(dir)
	if err != nil {
		releaseDirLock(lock)
		return nil, err
	}
	if len(snaps) > 0 || len(wals) > 0 {
		releaseDirLock(lock)
		return nil, fmt.Errorf("persist: %s already contains persisted state (%d snapshots, %d WAL segments); use Recover", dir, len(snaps), len(wals))
	}
	return &Manager{dir: dir, opts: opts, virgin: true, knownValid: make(map[uint64]bool), lock: lock}, nil
}

// Open scans an existing persistence directory, validates snapshots
// newest-first, and returns the manager positioned at the latest valid
// snapshot. Corrupt or truncated snapshots are skipped (the fallback
// path); if no valid snapshot exists the directory is unrecoverable.
// After Open, call Replay to apply the WAL suffix, then append freely.
func Open(dir string, opts Options) (*Manager, *Snapshot, error) {
	lock, err := acquireDirLock(dir)
	if err != nil {
		return nil, nil, err
	}
	fail := func(err error) (*Manager, *Snapshot, error) {
		releaseDirLock(lock)
		return nil, nil, err
	}
	snaps, wals, err := scanDir(dir)
	if err != nil {
		return fail(err)
	}
	if len(snaps) == 0 {
		return fail(fmt.Errorf("persist: %s contains no snapshot", dir))
	}
	maxGen := snaps[len(snaps)-1]
	if len(wals) > 0 && wals[len(wals)-1] > maxGen {
		maxGen = wals[len(wals)-1]
	}
	// Newest first; fall back on checksum or decode failure.
	var snap *Snapshot
	var lastErr error
	for i := len(snaps) - 1; i >= 0; i-- {
		s, err := ReadSnapshotFile(SnapshotPath(dir, snaps[i]))
		if err != nil {
			lastErr = err
			continue
		}
		if s.Gen != snaps[i] {
			lastErr = fmt.Errorf("persist: snapshot %d claims generation %d", snaps[i], s.Gen)
			continue
		}
		snap = s
		break
	}
	if snap == nil {
		return fail(fmt.Errorf("persist: no valid snapshot in %s: %w", dir, lastErr))
	}
	m := &Manager{dir: dir, opts: opts, gen: snap.Gen, maxGen: maxGen,
		knownValid: map[uint64]bool{snap.Gen: true}, lock: lock}
	return m, snap, nil
}

// scanDir lists snapshot and WAL generations present in dir, ascending.
func scanDir(dir string) (snaps, wals []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, nil
		}
		return nil, nil, err
	}
	for _, ent := range entries {
		// Anchor the match by reconstructing the canonical name:
		// Sscanf("snap-0.ckpt.tmp", "snap-%d.ckpt") succeeds, and a
		// leftover .tmp from a crashed atomic write must not count as a
		// generation (it would wedge both Create and Open).
		var g uint64
		if n, _ := fmt.Sscanf(ent.Name(), "snap-%d.ckpt", &g); n == 1 &&
			ent.Name() == fmt.Sprintf("snap-%08d.ckpt", g) {
			snaps = append(snaps, g)
		} else if n, _ := fmt.Sscanf(ent.Name(), "wal-%d.log", &g); n == 1 &&
			ent.Name() == fmt.Sprintf("wal-%08d.log", g) {
			wals = append(wals, g)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	sort.Slice(wals, func(i, j int) bool { return wals[i] < wals[j] })
	return snaps, wals, nil
}

// Replay applies the WAL suffix after the snapshot the manager was
// opened at: segments gen, gen+1, ... in order (later segments exist
// when recovery fell back past a corrupt snapshot). Only the LAST
// existing segment may end in a torn or corrupt record — that is the
// crash signature — and it is truncated to its valid prefix and
// reopened for appending. A corrupt record in the middle of an earlier
// segment is real data loss (every later segment depends on those
// batches), so it aborts recovery instead of silently skipping the
// gap. If no segment exists one is created. fn is called for every
// valid record in order.
func (m *Manager) Replay(fn func(*WalRecord) error) error {
	if m.wal != nil {
		return fmt.Errorf("persist: Replay after appending started")
	}
	var segs []uint64
	for g := m.gen; g <= m.maxGen; g++ {
		if _, err := os.Stat(walPath(m.dir, g)); err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return err
		}
		segs = append(segs, g)
	}
	if len(segs) == 0 {
		w, err := createWalSegment(walPath(m.dir, m.gen), m.gen, m.opts.Fsync)
		if err != nil {
			return err
		}
		m.wal = w
		return nil
	}
	for i, g := range segs {
		path := walPath(m.dir, g)
		validLen, err := replaySegment(path, g, fn)
		if errors.Is(err, errTornWalHeader) && i == len(segs)-1 {
			// The crash landed between creating the final segment and
			// writing its header: the segment holds no records. Recreate
			// it and resume appending there.
			if err := os.Remove(path); err != nil {
				return err
			}
			w, err := createWalSegment(path, g, m.opts.Fsync)
			if err != nil {
				return err
			}
			m.gen, m.wal = g, w
			return nil
		}
		if err != nil {
			return err
		}
		if i < len(segs)-1 {
			info, err := os.Stat(path)
			if err != nil {
				return err
			}
			if validLen != info.Size() {
				return fmt.Errorf("persist: %s: corrupt record at offset %d in a non-final WAL segment (batches after it exist in later segments); refusing to recover across the gap", path, validLen)
			}
			continue
		}
		if err := os.Truncate(path, validLen); err != nil {
			return err
		}
	}
	last := segs[len(segs)-1]
	w, err := openWalSegmentAppend(walPath(m.dir, last), m.opts.Fsync)
	if err != nil {
		return err
	}
	m.gen = last
	m.wal = w
	return nil
}

// Gen returns the generation the current WAL segment belongs to.
func (m *Manager) Gen() uint64 { return m.gen }

// AppendBatch appends one batch record to the current WAL segment: the
// dictionary names interned while encoding the batch, then the tuples.
func (m *Manager) AppendBatch(vdelta, ldelta []string, tuples []stream.Tuple) error {
	if m.wal == nil {
		return fmt.Errorf("persist: no open WAL segment (write the initial snapshot or Replay first; a failed checkpoint also closes the segment — retry WriteSnapshot to repair)")
	}
	return m.wal.AppendBatch(vdelta, ldelta, tuples)
}

// AppendCommit appends a commit record marking the last appended
// batch's results as delivered.
func (m *Manager) AppendCommit(lastTS int64, results int64) error {
	if m.wal == nil {
		return fmt.Errorf("persist: no open WAL segment")
	}
	return m.wal.AppendCommit(lastTS, results)
}

// WriteSnapshot persists a new snapshot generation: the current WAL
// segment is closed, the snapshot is written atomically under the next
// generation number, a fresh WAL segment for that generation is opened,
// and superseded files are pruned (keeping keepSnapshots
// generations for corruption fallback).
func (m *Manager) WriteSnapshot(s *Snapshot) error {
	next := m.maxGen + 1
	if m.virgin {
		next = 0
		m.virgin = false
	}
	s.Gen = next
	if err := writeFileAtomic(SnapshotPath(m.dir, next), EncodeSnapshot(s), m.opts.Fsync); err != nil {
		return err
	}
	if m.wal != nil {
		if err := m.wal.Close(); err != nil {
			return err
		}
		m.wal = nil
	}
	w, err := createWalSegment(walPath(m.dir, next), next, m.opts.Fsync)
	if err != nil {
		return err
	}
	m.gen, m.maxGen, m.wal = next, next, w
	m.knownValid[next] = true
	m.prune()
	return nil
}

// prune removes snapshot generations older than the keepSnapshots
// newest VALID ones, and WAL segments older than the oldest kept valid
// snapshot (those batches are fully contained in every kept snapshot).
// Only snapshots that pass their checksum count toward the keep window:
// a corrupt newest generation must not evict the valid fallback it
// would itself need. Pruning is best-effort: a failure leaves extra
// files behind, never missing ones. Validity is cached per generation,
// so the steady state (every file written by this process) does no
// file I/O beyond the directory scan.
func (m *Manager) prune() {
	snaps, wals, err := scanDir(m.dir)
	if err != nil || len(snaps) <= keepSnapshots {
		return
	}
	valid := make([]uint64, 0, len(snaps))
	for _, g := range snaps {
		if m.knownValid[g] {
			valid = append(valid, g) // written or loaded by this process
			continue
		}
		if fg, err := snapshotFileGen(SnapshotPath(m.dir, g)); err == nil && fg == g {
			m.knownValid[g] = true
			valid = append(valid, g)
		}
	}
	if len(valid) <= keepSnapshots {
		return
	}
	oldestKept := valid[len(valid)-keepSnapshots]
	for _, g := range snaps {
		if g < oldestKept {
			os.Remove(SnapshotPath(m.dir, g))
		}
	}
	for _, g := range wals {
		if g < oldestKept {
			os.Remove(walPath(m.dir, g))
		}
	}
}

// Close closes the current WAL segment. The manager cannot append
// afterwards; a new Open resumes cleanly.
func (m *Manager) Close() error {
	var err error
	if m.wal != nil {
		err = m.wal.Close()
		m.wal = nil
	}
	releaseDirLock(m.lock)
	m.lock = nil
	return err
}
