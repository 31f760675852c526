package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
)

// Scratch space for store directories and crash images. Durable workloads
// want a tmpfs: the sandbox's fsync is not a device's either way, and on a
// disk-backed directory its run-to-run drift (2x between consecutive runs
// on the reference box) drowns every timing, while what a change to the
// program can alter - files, bytes and fsyncs per op - is reported as
// counts. So /dev/shm is used when it is a writable tmpfs with room, and a
// directory under .bench_build/ in the working directory otherwise.
const (
	shmBase       = "/dev/shm"
	scratchPrefix = "wfbench-"
	// scratchCap is both the free space asked of the tmpfs and the size
	// above which a directory left by a crashed run is not swept silently.
	scratchCap = 512 << 20
	tmpfsMagic = 0x01021994
)

type scratch struct {
	root string // removed as a whole by cleanup
	fs   string // "tmpfs:/dev/shm" or "dir:<path>", printed as store_fs
	n    int
}

// newScratch picks the base directory, sweeps what crashed runs left there
// and creates this run's own root. It refuses to start over a leftover
// larger than scratchCap: something other than a crashed run made that.
func newScratch() (*scratch, error) {
	base, fs := filepath.Join(".bench_build", "tmp"), ""
	var sfs syscall.Statfs_t
	if err := syscall.Statfs(shmBase, &sfs); err == nil && int64(sfs.Type) == tmpfsMagic &&
		int64(sfs.Bavail)*int64(sfs.Bsize) >= scratchCap {
		if probe, err := os.MkdirTemp(shmBase, scratchPrefix+"probe-"); err == nil {
			os.Remove(probe)
			base, fs = shmBase, "tmpfs:"+shmBase
		}
	}
	if fs == "" {
		if err := os.MkdirAll(base, 0o755); err != nil {
			return nil, err
		}
		fs = "dir:" + base
	}
	if err := sweepStale(base); err != nil {
		return nil, err
	}
	root := filepath.Join(base, scratchPrefix+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	return &scratch{root: root, fs: fs}, nil
}

// sweepStale removes wfbench-<pid> directories whose process is gone.
func sweepStale(base string) error {
	entries, err := os.ReadDir(base)
	if err != nil {
		return err
	}
	for _, e := range entries {
		pid, err := strconv.Atoi(strings.TrimPrefix(e.Name(), scratchPrefix))
		if err != nil || !strings.HasPrefix(e.Name(), scratchPrefix) || !e.IsDir() {
			continue
		}
		if syscall.Kill(pid, 0) != syscall.ESRCH {
			continue // its run is still going (or is not ours to judge)
		}
		path := filepath.Join(base, e.Name())
		if size := dirSize(path); size > scratchCap {
			return fmt.Errorf("stale scratch directory %s holds %d MB (cap %d MB): remove it by hand", path, size>>20, scratchCap>>20)
		}
		if err := os.RemoveAll(path); err != nil {
			return err
		}
	}
	return nil
}

func dirSize(path string) int64 {
	var total int64
	filepath.Walk(path, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}

// dir creates a fresh directory under the run's root.
func (s *scratch) dir(name string) (string, error) {
	s.n++
	path := filepath.Join(s.root, fmt.Sprintf("%s-%d", name, s.n))
	return path, os.MkdirAll(path, 0o755)
}

func (s *scratch) cleanup() { os.RemoveAll(s.root) }

// copyStore copies the committed files of a live store directory: what a
// crash at this instant would leave (tmp-* files are never promised
// durable and Open removes them, so they are skipped).
func copyStore(from, to string) error {
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "tmp-") || !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(from, e.Name()), filepath.Join(to, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(from, to string) error {
	in, err := os.Open(from)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
