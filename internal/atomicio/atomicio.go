// Package atomicio is the shared atomic-write helper for every result
// artifact the campaign pipeline produces (trial CSVs, sealed trial
// stores, manifests, figure TSVs, raw dataset files). It is the
// on-disk sibling of internal/checkpoint's in-memory scheme: a write
// either lands complete at its final path or not at all, so a crash
// mid-flush can never leave a truncated file that parses as a finished
// one.
//
// The protocol is the classic temp + fsync + rename sequence: the
// payload is streamed to a pending file in the destination directory,
// flushed to stable storage with fsync, renamed over the final path
// (atomic within a filesystem on POSIX), and the directory is fsynced
// so the rename itself survives a power loss. One-shot writes
// (WriteFile) use a randomly named temp file; a resumable write
// (Resume) keeps its pending file at the fixed PendingPath, so a
// restarted process can find what a crashed one appended and continue
// it instead of starting over.
//
// positlint's atomicwrite rule flags direct os.Create / os.WriteFile
// calls elsewhere in the module, so artifact output cannot silently
// regress to a bare create.
package atomicio

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// PendingFile is an in-progress atomic write: a pending file in the
// destination's directory that becomes the destination only on Commit.
// It exists for writers that stream an artifact over an extended span
// — the columnar trial store appends blocks for the whole life of a
// campaign before sealing — where the closure style of WriteFile would
// force buffering everything in memory. Until Commit succeeds the
// final path is untouched. Abort removes the pending file; Close
// releases it in place for a later Resume. All three are idempotent
// and mutually exclusive: after any of them the PendingFile is spent.
type PendingFile struct {
	f       *os.File
	path    string // final destination
	tmpName string // pending file currently holding the payload
	done    bool   // committed, aborted or closed
	// resumable marks a Resume-opened file: a failed Commit keeps its
	// payload for the next Resume instead of removing it.
	resumable bool
}

// create opens a one-shot pending write targeting path under a random
// dot-prefixed temp name in path's directory, so the final rename
// stays within one filesystem (and therefore atomic).
func create(path string) (*PendingFile, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return nil, fmt.Errorf("atomicio: temp for %s: %w", path, err)
	}
	return &PendingFile{f: tmp, path: path, tmpName: tmp.Name()}, nil
}

// PendingPath returns the fixed location at which Resume keeps the
// pending write for path: path with a ".pending" suffix, in the same
// directory so Commit's rename stays atomic. A pending file is never
// visible at the final path.
func PendingPath(path string) string { return path + ".pending" }

// Resume opens the pending write for path at PendingPath(path),
// creating an empty one if none exists and otherwise keeping every
// byte a previous process left there. It is the restartable
// counterpart of WriteFile's temp file, for writers whose pending
// payload is itself the record a crashed process resumes from: the
// caller inspects the existing bytes with ReadAt and Size, cuts them
// back to a verified prefix with Truncate (which also positions the
// next Write), and makes each append durable with Sync.
func Resume(path string) (*PendingFile, error) {
	pending := PendingPath(path)
	f, err := os.OpenFile(pending, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("atomicio: pending %s: %w", path, err)
	}
	// The directory entry must be durable before any append is
	// reported durable.
	if err := syncDir(filepath.Dir(pending)); err != nil {
		_ = f.Close() // best effort: the sync error is the one worth reporting
		return nil, err
	}
	return &PendingFile{f: f, path: path, tmpName: pending, resumable: true}, nil
}

// Write implements io.Writer, appending to the pending payload.
func (p *PendingFile) Write(b []byte) (int, error) { return p.f.Write(b) }

// Offset reports how many bytes of payload have been written — the
// position the next Write lands at. Writers that build an index of
// their own output (the store's footer) use it instead of counting.
func (p *PendingFile) Offset() (int64, error) { return p.f.Seek(0, io.SeekCurrent) }

// ReadAt reads pending payload bytes at off, as io.ReaderAt.
func (p *PendingFile) ReadAt(b []byte, off int64) (int, error) { return p.f.ReadAt(b, off) }

// Size reports the pending payload's current length in bytes.
func (p *PendingFile) Size() (int64, error) {
	st, err := p.f.Stat()
	if err != nil {
		return 0, fmt.Errorf("atomicio: stat %s: %w", p.tmpName, err)
	}
	return st.Size(), nil
}

// Truncate cuts the pending payload to size bytes, positions the next
// Write there, and fsyncs, so the cut survives a crash.
func (p *PendingFile) Truncate(size int64) error {
	if err := p.f.Truncate(size); err != nil {
		return fmt.Errorf("atomicio: truncate %s: %w", p.tmpName, err)
	}
	if _, err := p.f.Seek(size, io.SeekStart); err != nil {
		return fmt.Errorf("atomicio: seek %s: %w", p.tmpName, err)
	}
	return p.Sync()
}

// Sync flushes everything written so far to stable storage.
func (p *PendingFile) Sync() error {
	if err := p.f.Sync(); err != nil {
		return fmt.Errorf("atomicio: fsync %s: %w", p.tmpName, err)
	}
	return nil
}

// Commit makes the pending payload durable at the final path: fsync,
// chmod to the artifact mode 0o644, close, rename over path, fsync
// the directory. On any failure the final path is untouched and a
// one-shot temp file is removed (a Resume-opened pending file stays
// for the next Resume). After Commit the PendingFile is spent.
func (p *PendingFile) Commit() error {
	if p.done {
		return fmt.Errorf("atomicio: commit %s: already committed, aborted or closed", p.path)
	}
	p.done = true
	discard := func() {
		if !p.resumable {
			_ = os.Remove(p.tmpName) // best effort: the step error is the one worth reporting
		}
	}
	fail := func(step string, err error) error {
		_ = p.f.Close() // best effort: the step error is the one worth reporting
		discard()
		return fmt.Errorf("atomicio: %s %s: %w", step, p.path, err)
	}
	if err := p.f.Sync(); err != nil {
		return fail("fsync", err)
	}
	// CreateTemp uses 0o600; artifacts are world-readable like any
	// os.Create output.
	if err := p.f.Chmod(0o644); err != nil {
		return fail("chmod", err)
	}
	if err := p.f.Close(); err != nil {
		discard()
		return fmt.Errorf("atomicio: close %s: %w", p.path, err)
	}
	if err := os.Rename(p.tmpName, p.path); err != nil {
		discard()
		return fmt.Errorf("atomicio: rename %s: %w", p.path, err)
	}
	return syncDir(filepath.Dir(p.path))
}

// Abort discards the pending payload, leaving the final path as it
// was. Safe to call more than once and after Commit or Close (all
// no-ops), so callers can defer it unconditionally.
func (p *PendingFile) Abort() {
	if p.done {
		return
	}
	p.done = true
	_ = p.f.Close()          // best effort: nothing to report on a discard
	_ = os.Remove(p.tmpName) // ditto
}

// Close releases the pending file without committing or removing it,
// so a later Resume continues from its bytes. A no-op after Commit,
// Abort or an earlier Close.
func (p *PendingFile) Close() error {
	if p.done {
		return nil
	}
	p.done = true
	if err := p.f.Close(); err != nil {
		return fmt.Errorf("atomicio: close %s: %w", p.tmpName, err)
	}
	return nil
}

// WriteFile atomically writes the output of write to path with mode
// 0o644. write receives a writer backed by a temporary file in path's
// directory; if write or any flush/sync/rename step fails, the
// temporary file is removed and the final path is untouched (a
// previous file at path, if any, survives intact).
func WriteFile(path string, write func(w io.Writer) error) error {
	p, err := create(path)
	if err != nil {
		return err
	}
	if err := write(p); err != nil {
		p.Abort()
		return fmt.Errorf("atomicio: write %s: %w", path, err)
	}
	return p.Commit()
}

// WriteFileBytes atomically writes data to path with mode 0o644.
func WriteFileBytes(path string, data []byte) error {
	return WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// syncDir fsyncs a directory so a completed rename is durable. Some
// filesystems return EINVAL/ENOTSUP for directory fsync; that is not a
// durability regression relative to a bare write, so only open errors
// are reported.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("atomicio: open dir %s: %w", dir, err)
	}
	_ = d.Sync() // best effort: not all filesystems support directory fsync
	return d.Close()
}
