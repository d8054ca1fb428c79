// Package pagestore simulates the block device underneath the reordering
// operators. Spill files (sort runs, hash buckets) are written and read at
// page granularity and every page transfer is counted, so experiments can
// report exact block-I/O figures — the currency of the paper's cost models —
// independently of the machine's real disk.
//
// Two backends are provided: a memory backend (default; deterministic and
// fast, used by tests and benchmarks) and a file backend (temp files on the
// real filesystem, for runs larger than RAM). Both account identically.
package pagestore

import (
	"fmt"
	"io"
	"os"
	"sync/atomic"
)

// DefaultBlockSize is the page size used throughout the system when a
// configuration does not override it (8 KiB, PostgreSQL's default).
const DefaultBlockSize = 8192

// Stats accumulates block transfer counts. Safe for concurrent use.
type Stats struct {
	blocksRead    atomic.Int64
	blocksWritten atomic.Int64
	bytesRead     atomic.Int64
	bytesWritten  atomic.Int64
}

// BlocksRead returns the number of pages read back from spill files.
func (s *Stats) BlocksRead() int64 { return s.blocksRead.Load() }

// BlocksWritten returns the number of pages written to spill files.
func (s *Stats) BlocksWritten() int64 { return s.blocksWritten.Load() }

// BytesRead returns the payload bytes read back.
func (s *Stats) BytesRead() int64 { return s.bytesRead.Load() }

// BytesWritten returns the payload bytes written.
func (s *Stats) BytesWritten() int64 { return s.bytesWritten.Load() }

// TotalBlocks returns reads+writes, the paper's cost unit.
func (s *Stats) TotalBlocks() int64 { return s.BlocksRead() + s.BlocksWritten() }

// Reset zeroes all counters.
func (s *Stats) Reset() {
	s.blocksRead.Store(0)
	s.blocksWritten.Store(0)
	s.bytesRead.Store(0)
	s.bytesWritten.Store(0)
}

// Add merges other into s.
func (s *Stats) Add(other *Stats) {
	s.blocksRead.Add(other.BlocksRead())
	s.blocksWritten.Add(other.BlocksWritten())
	s.bytesRead.Add(other.BytesRead())
	s.bytesWritten.Add(other.BytesWritten())
}

// Store creates spill files over one backend with shared accounting.
type Store struct {
	blockSize int
	stats     *Stats
	dir       string // non-empty ⇒ file-backed
}

// NewMem returns a memory-backed store. stats may be nil.
func NewMem(blockSize int, stats *Stats) *Store {
	return newStore(blockSize, stats, "")
}

// NewFileBacked returns a store whose spill files live as temp files in dir
// (or the OS temp dir when dir is empty).
func NewFileBacked(dir string, blockSize int, stats *Stats) *Store {
	if dir == "" {
		dir = os.TempDir()
	}
	return newStore(blockSize, stats, dir)
}

func newStore(blockSize int, stats *Stats, dir string) *Store {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	if stats == nil {
		stats = &Stats{}
	}
	return &Store{blockSize: blockSize, stats: stats, dir: dir}
}

// BlockSize returns the page size in bytes.
func (s *Store) BlockSize() int { return s.blockSize }

// Stats returns the shared counters.
func (s *Store) Stats() *Stats { return s.stats }

// Create opens a fresh spill file for sequential writing.
func (s *Store) Create() (*File, error) {
	f := &File{store: s}
	if s.dir != "" {
		osf, err := os.CreateTemp(s.dir, "windowdb-spill-*")
		if err != nil {
			return nil, fmt.Errorf("pagestore: create spill: %w", err)
		}
		f.osf = osf
	}
	return f, nil
}

// File is a spill file: write sequentially, Seal, then read via one or more
// independent Readers. Not safe for concurrent writers; readers are
// independent and may run concurrently after Seal.
type File struct {
	store  *Store
	pages  [][]byte // memory backend payload, one slice per page
	osf    *os.File // file backend handle (nil for memory)
	size   int64
	sealed bool
	wbuf   []byte // current partial page
}

// Write appends payload bytes, flushing full pages with accounting.
func (f *File) Write(p []byte) (int, error) {
	if f.sealed {
		return 0, fmt.Errorf("pagestore: write after Seal")
	}
	n := len(p)
	bs := f.store.blockSize
	for len(p) > 0 {
		room := bs - len(f.wbuf)
		take := min(room, len(p))
		if f.wbuf == nil {
			f.wbuf = make([]byte, 0, bs)
		}
		f.wbuf = append(f.wbuf, p[:take]...)
		p = p[take:]
		if len(f.wbuf) == bs {
			if err := f.flushPage(); err != nil {
				return 0, err
			}
		}
	}
	return n, nil
}

func (f *File) flushPage() error {
	if len(f.wbuf) == 0 {
		return nil
	}
	f.store.stats.blocksWritten.Add(1)
	f.store.stats.bytesWritten.Add(int64(len(f.wbuf)))
	if f.osf != nil {
		if _, err := f.osf.Write(f.wbuf); err != nil {
			return fmt.Errorf("pagestore: flush: %w", err)
		}
		f.size += int64(len(f.wbuf))
		f.wbuf = f.wbuf[:0]
		return nil
	}
	f.size += int64(len(f.wbuf))
	// The memory backend keeps the page itself; the next write starts a
	// fresh one. Only the page Seal flushes can be short.
	f.pages = append(f.pages, f.wbuf)
	f.wbuf = nil
	return nil
}

// Seal flushes the final partial page and makes the file readable.
func (f *File) Seal() error {
	if f.sealed {
		return nil
	}
	if err := f.flushPage(); err != nil {
		return err
	}
	f.sealed = true
	return nil
}

// Size returns payload bytes written (valid after Seal).
func (f *File) Size() int64 { return f.size }

// Blocks returns the number of pages the file occupies.
func (f *File) Blocks() int64 {
	bs := int64(f.store.blockSize)
	return (f.size + bs - 1) / bs
}

// Release frees backing resources. Readers must be finished.
func (f *File) Release() {
	f.pages = nil
	f.wbuf = nil
	if f.osf != nil {
		name := f.osf.Name()
		f.osf.Close()
		os.Remove(name)
		f.osf = nil
	}
}

// NewReader returns an independent sequential reader over the sealed file.
func (f *File) NewReader() (*Reader, error) {
	if !f.sealed {
		return nil, fmt.Errorf("pagestore: NewReader before Seal")
	}
	return &Reader{f: f}, nil
}

// Reader reads a sealed File sequentially, counting one block read per page
// it consumes.
type Reader struct {
	f          *File
	off        int64
	pagesRead  int64
	fileHandle *os.File
}

// Read implements io.Reader with page-granular accounting.
func (r *Reader) Read(p []byte) (int, error) {
	f := r.f
	if r.off >= f.size {
		return 0, io.EOF
	}
	// Bound the read to the remaining payload.
	remain := f.size - r.off
	if int64(len(p)) > remain {
		p = p[:remain]
	}
	var n int
	if f.osf != nil {
		if r.fileHandle == nil {
			h, err := os.Open(f.osf.Name())
			if err != nil {
				return 0, fmt.Errorf("pagestore: reopen spill: %w", err)
			}
			r.fileHandle = h
		}
		m, err := r.fileHandle.ReadAt(p, r.off)
		if err != nil && err != io.EOF {
			return m, err
		}
		n = m
	} else {
		bs := int64(f.store.blockSize)
		for n < len(p) {
			off := r.off + int64(n)
			n += copy(p[n:], f.pages[off/bs][off%bs:])
		}
	}
	if n == 0 {
		return 0, io.EOF
	}
	// Account pages crossed by this read.
	bs := int64(f.store.blockSize)
	firstPage := r.off / bs
	lastPage := (r.off + int64(n) - 1) / bs
	newPages := lastPage - firstPage + 1
	if r.pagesRead > 0 && firstPage == (r.off-1)/bs {
		// The first page of this read was already counted by the previous
		// read that ended inside it.
		newPages--
	}
	if newPages > 0 {
		f.store.stats.blocksRead.Add(newPages)
		r.pagesRead += newPages
	}
	f.store.stats.bytesRead.Add(int64(n))
	r.off += int64(n)
	return n, nil
}

// Close releases the reader's OS handle (memory backend: no-op).
func (r *Reader) Close() error {
	if r.fileHandle != nil {
		err := r.fileHandle.Close()
		r.fileHandle = nil
		return err
	}
	return nil
}
