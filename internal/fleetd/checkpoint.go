package fleetd

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/fleet"
	"repro/internal/wire"
)

// Checkpointed resume. While a job runs, the daemon periodically
// writes its pool's deterministic shard outcomes (fleet.Pool.Finished:
// status ok or failed, the statuses a resumed pool may preload) as a
// crash-safe snapshot to <dir>/<id>.ckpt.bin. A daemon killed
// mid-sweep therefore restarts, reloads the directory, and finishes
// interrupted jobs without recomputing done shards; finished jobs
// persist their full report so restarts also refill the spec index.
//
// Durability contract: Write stages the bytes in a temp file, fsyncs
// the file, renames it over the target, then fsyncs the directory —
// after Write returns, the checkpoint survives a machine crash, and a
// crash at any earlier point leaves the previous checkpoint intact.
// Records are encoded as one CRC-tagged CKP1 frame (wire.go); Load
// quarantines any file that fails to decode or whose CRC disagrees
// (renamed to <id>.corrupt, reported, never fatal) so one bad sector
// cannot block the rest of the fleet from resuming.

// checkpointVersion guards the record schema carried inside every
// CKP1 frame. It stays 2, the number CKP1 shipped with, so existing
// files and the golden fixture keep decoding byte for byte.
const checkpointVersion = 2

// ckptSuffix names checkpoint files. Load also reads files with
// legacyJSONSuffix, which older daemons wrote: they fail the CKP1 header
// check and are quarantined rather than silently ignored. Anything
// else in the directory is skipped.
const (
	ckptSuffix       = ".ckpt.bin"
	legacyJSONSuffix = ".ckpt.json"
)

// corruptSuffix is where Load quarantines files it cannot trust.
const corruptSuffix = ".corrupt"

// maxCheckpointFile bounds a checkpoint file: the stream header and
// one CKP1 frame of at most wire.MaxFrame payload bytes. Load
// quarantines a larger file without reading it.
const maxCheckpointFile = wire.HeaderSize + wire.FrameHeaderSize + wire.MaxFrame

// Record is the on-disk form of one job's checkpoint.
type Record struct {
	ID string `json:"id"`
	// State is queued, running, or done (cancelled jobs delete their
	// checkpoint instead — an operator abort should not resurrect).
	State string `json:"state"`
	// Spec is the submitted fleet spec in canonical form
	// (CanonicalSpec), so a restarted daemon can rebuild and re-run the
	// job list.
	Spec json.RawMessage `json:"spec"`
	// Outcomes are the deterministic shard results completed so far
	// (state running), or empty (queued), or complete (done).
	Outcomes []fleet.JobOutcome `json:"outcomes,omitempty"`
	// Fingerprint and Report are set once the job is done.
	Fingerprint string          `json:"fingerprint,omitempty"`
	Report      json.RawMessage `json:"report,omitempty"`
	// Error preserves a failed job's description across restarts.
	Error string `json:"error,omitempty"`
}

// Quarantine describes one checkpoint file Load refused to trust.
type Quarantine struct {
	// File is the original checkpoint file name (not path).
	File string `json:"file"`
	// MovedTo is the quarantine destination name, empty if the rename
	// itself failed (the file is left in place and skipped).
	MovedTo string `json:"moved_to,omitempty"`
	// Reason says why the file was rejected.
	Reason string `json:"reason"`
}

// RecoveryReport is Load's structured account of what it found:
// how many records loaded cleanly, which files were quarantined and
// why, and any directory-level errors. It replaces a bare error slice
// so operators (and tests) can distinguish "empty dir" from "ate a
// corrupt checkpoint" at a glance.
type RecoveryReport struct {
	// Loaded counts records decoded and CRC-verified.
	Loaded int `json:"loaded"`
	// Quarantined lists rejected files, in directory order.
	Quarantined []Quarantine `json:"quarantined,omitempty"`
	// Errors collects non-quarantine failures (unreadable dir or
	// files); these do not abort the load either.
	Errors []string `json:"errors,omitempty"`
}

// Clean reports whether the load saw no quarantines and no errors.
func (r RecoveryReport) Clean() bool {
	return len(r.Quarantined) == 0 && len(r.Errors) == 0
}

// String summarizes the report for logs.
func (r RecoveryReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "loaded %d checkpoint(s)", r.Loaded)
	for _, q := range r.Quarantined {
		dest := q.MovedTo
		if dest == "" {
			dest = "(left in place)"
		}
		fmt.Fprintf(&b, "; quarantined %s -> %s: %s", q.File, dest, q.Reason)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(&b, "; error: %s", e)
	}
	return b.String()
}

// CheckpointStore reads and writes job checkpoints in one directory.
// A nil store is valid and makes every operation a no-op, so the
// daemon runs fine with checkpointing disabled.
type CheckpointStore struct {
	dir string
	fs  FS
	// tmpSeq makes each write's staging file unique, so concurrent
	// writes for the same job ID never rename each other's temp file
	// out from under them.
	tmpSeq atomic.Uint64
}

// NewCheckpointStore opens (creating if needed) the checkpoint
// directory on the real filesystem; dir == "" disables checkpointing
// and returns nil.
func NewCheckpointStore(dir string) (*CheckpointStore, error) {
	return NewCheckpointStoreFS(dir, OSFS())
}

// NewCheckpointStoreFS is NewCheckpointStore with an injected FS —
// the seam the chaos harness uses to put faults under every write.
func NewCheckpointStoreFS(dir string, fsys FS) (*CheckpointStore, error) {
	if dir == "" {
		return nil, nil
	}
	if fsys == nil {
		fsys = OSFS()
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleetd: checkpoint dir: %w", err)
	}
	return &CheckpointStore{dir: dir, fs: fsys}, nil
}

// path returns the checkpoint file for a job id.
func (s *CheckpointStore) path(id string) string {
	return filepath.Join(s.dir, id+ckptSuffix)
}

// Write persists a record crash-safely: encode it as a CKP1 frame,
// stage in a temp file in the same directory, fsync the file, rename
// over the target, fsync the directory. A crash before the rename
// leaves the previous checkpoint; a crash after the directory sync
// leaves the new one; the CRC catches anything in between.
func (s *CheckpointStore) Write(rec Record) error {
	if s == nil {
		return nil
	}
	data := AppendCheckpoint(nil, &rec)
	target := s.path(rec.ID)
	tmp := fmt.Sprintf("%s.%d.tmp", target, s.tmpSeq.Add(1))
	f, err := s.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("fleetd: stage checkpoint %s: %w", rec.ID, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("fleetd: write checkpoint %s: %w", rec.ID, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("fleetd: sync checkpoint %s: %w", rec.ID, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("fleetd: close checkpoint %s: %w", rec.ID, err)
	}
	if err := s.fs.Rename(tmp, target); err != nil {
		return fmt.Errorf("fleetd: commit checkpoint %s: %w", rec.ID, err)
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		return fmt.Errorf("fleetd: sync checkpoint dir for %s: %w", rec.ID, err)
	}
	return nil
}

// Remove deletes a job's checkpoint (used when a job is cancelled).
func (s *CheckpointStore) Remove(id string) error {
	if s == nil {
		return nil
	}
	if err := s.fs.Remove(s.path(id)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// Load reads every checkpoint in the directory, sorted by job ID so a
// restarted daemon re-queues interrupted jobs in their original
// submission order. Files larger than maxCheckpointFile, or that fail
// to decode or whose CRC disagrees, are quarantined — renamed to <id>.corrupt and accounted for in the
// RecoveryReport — never fatal: one corrupt checkpoint must not block
// the rest of the fleet from resuming.
func (s *CheckpointStore) Load() ([]Record, RecoveryReport) {
	var report RecoveryReport
	if s == nil {
		return nil, report
	}
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		report.Errors = append(report.Errors, fmt.Sprintf("read checkpoint dir: %v", err))
		return nil, report
	}
	var recs []Record
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || (!strings.HasSuffix(name, ckptSuffix) && !strings.HasSuffix(name, legacyJSONSuffix)) {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			report.Errors = append(report.Errors, fmt.Sprintf("stat %s: %v", name, err))
			continue
		}
		if info.Size() > maxCheckpointFile {
			reason := fmt.Sprintf("oversize: %d bytes, limit %d", info.Size(), maxCheckpointFile)
			report.Quarantined = append(report.Quarantined, s.quarantine(name, reason))
			continue
		}
		data, err := s.fs.ReadFile(filepath.Join(s.dir, name))
		if err != nil {
			report.Errors = append(report.Errors, fmt.Sprintf("read %s: %v", name, err))
			continue
		}
		rec, reason := decodeCheckpoint(data)
		if reason != "" {
			report.Quarantined = append(report.Quarantined, s.quarantine(name, reason))
			continue
		}
		recs = append(recs, rec)
		report.Loaded++
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	return recs, report
}

// decodeCheckpoint parses one checkpoint file. An empty reason means
// the record is trustworthy; otherwise reason says why it is not.
func decodeCheckpoint(data []byte) (Record, string) {
	rec, err := UnmarshalCheckpoint(data)
	if err != nil {
		return Record{}, fmt.Sprintf("undecodable: %v", err)
	}
	if rec.ID == "" {
		return Record{}, "missing job id"
	}
	return rec, ""
}

// quarantine moves a rejected checkpoint aside as <id>.corrupt so the
// next load does not trip on it again; the bytes are preserved for
// post-mortem. If the rename fails the file stays put and is skipped.
func (s *CheckpointStore) quarantine(name, reason string) Quarantine {
	q := Quarantine{File: name, Reason: reason}
	base := strings.TrimSuffix(strings.TrimSuffix(name, ckptSuffix), legacyJSONSuffix)
	dest := base + corruptSuffix
	if err := s.fs.Rename(filepath.Join(s.dir, name), filepath.Join(s.dir, dest)); err == nil {
		q.MovedTo = dest
	}
	return q
}

// Checkpoint state names (distinct from the API job states only in
// that a checkpoint never records cancellation).
const (
	StateQueuedCkpt  = "queued"
	StateRunningCkpt = "running"
	StateDoneCkpt    = "done"
)
