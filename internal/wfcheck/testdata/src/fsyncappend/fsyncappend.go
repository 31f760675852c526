// Package fsyncappend exercises the append commit of the crash-durability
// pass: inside a //wf:durable function every (*os.File).Write or Truncate
// must be followed by a Sync on the same handle before return, and a
// function that writes (without renaming) is a commit, not a stale claim.
package fsyncappend

import "os"

type log struct {
	seg  *os.File
	dirf *os.File
}

// appendGood is the append commit: one write, one sync of the same handle.
//
//wf:durable
func (l *log) appendGood(frame []byte) error {
	if _, err := l.seg.Write(frame); err != nil {
		return err
	}
	return l.seg.Sync()
}

// truncateGood cuts a torn tail and syncs the cut.
//
//wf:durable
func truncateGood(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// appendNoSync reports an append durable that only reached the page cache.
//
//wf:durable
func (l *log) appendNoSync(frame []byte) error {
	_, err := l.seg.Write(frame)
	return err
}

// appendSyncsOther syncs the directory instead of the segment it wrote.
//
//wf:durable
func (l *log) appendSyncsOther(frame []byte) error {
	if _, err := l.seg.Write(frame); err != nil {
		return err
	}
	return l.dirf.Sync()
}

// appendSyncFirst syncs before it writes, so the write is never synced.
//
//wf:durable
func (l *log) appendSyncFirst(frame []byte) error {
	if err := l.seg.Sync(); err != nil {
		return err
	}
	_, err := l.seg.Write(frame)
	return err
}

// truncateNoSync cuts a tail without syncing the cut.
//
//wf:durable
func truncateNoSync(f *os.File, size int64) error {
	return f.Truncate(size)
}

// appendUnannotated writes without claiming durability: outside the audit.
func (l *log) appendUnannotated(frame []byte) error {
	_, err := l.seg.Write(frame)
	return err
}
