// Package spill frames tuples into pagestore files: sort runs, hash-sort
// buckets and any other temporary tuple sequences share this codec. Tuples
// are written back-to-back in the self-describing binary encoding of
// package storage; the reader reassembles them across page boundaries.
package spill

import (
	"errors"
	"io"

	"repro/internal/pagestore"
	"repro/internal/storage"
)

// Writer appends tuples to a spill file.
type Writer struct {
	file *pagestore.File
	buf  []byte
}

// NewWriter creates a fresh spill file in store.
func NewWriter(store *pagestore.Store) (*Writer, error) {
	f, err := store.Create()
	if err != nil {
		return nil, err
	}
	return &Writer{file: f}, nil
}

// Write appends one tuple.
func (w *Writer) Write(t storage.Tuple) error {
	w.buf = storage.AppendTuple(w.buf[:0], t)
	_, err := w.file.Write(w.buf)
	return err
}

// Finish seals the file and returns it for reading.
func (w *Writer) Finish() (*pagestore.File, error) {
	if err := w.file.Seal(); err != nil {
		return nil, err
	}
	return w.file, nil
}

// File returns the underlying file (valid before Finish for size queries).
func (w *Writer) File() *pagestore.File { return w.file }

// Reader decodes tuples back out of a sealed spill file into an arena.
type Reader struct {
	rd    *pagestore.Reader
	arena *storage.Arena
	buf   []byte
	pos   int
	fill  int
	eof   bool
}

// readBufSize is the read buffer of a file larger than one buffer; a
// smaller file gets a buffer of exactly its size.
const readBufSize = 64 << 10

// NewReader opens a sealed spill file for sequential tuple reads, decoding
// into a private arena with no reserve.
func NewReader(f *pagestore.File) (*Reader, error) {
	return NewArenaReader(f, storage.NewArena(0))
}

// NewArenaReader opens a sealed spill file for sequential tuple reads,
// decoding into arena. Readers of one merge share its arena, so the tuples
// of all their files fill the same slabs.
func NewArenaReader(f *pagestore.File, arena *storage.Arena) (*Reader, error) {
	rd, err := f.NewReader()
	if err != nil {
		return nil, err
	}
	size := int(min(f.Size(), readBufSize))
	return &Reader{rd: rd, arena: arena, buf: make([]byte, 0, size)}, nil
}

// Next returns the next tuple; ok is false at end of file.
func (r *Reader) Next() (t storage.Tuple, ok bool, err error) {
	for {
		if r.pos < r.fill {
			t, n, derr := r.arena.Decode(r.buf[r.pos:r.fill])
			if derr == nil {
				r.pos += n
				return t, true, nil
			}
			if !r.eof {
				if err := r.refill(); err != nil {
					return nil, false, err
				}
				continue
			}
			return nil, false, derr
		}
		if r.eof {
			return nil, false, nil
		}
		if err := r.refill(); err != nil {
			return nil, false, err
		}
	}
}

func (r *Reader) refill() error {
	remain := r.fill - r.pos
	copy(r.buf[:cap(r.buf)][:remain], r.buf[r.pos:r.fill])
	r.buf = r.buf[:cap(r.buf)]
	if remain == len(r.buf) {
		bigger := make([]byte, max(2*len(r.buf), 1))
		copy(bigger, r.buf[:remain])
		r.buf = bigger
	}
	n, err := r.rd.Read(r.buf[remain:])
	r.fill = remain + n
	r.pos = 0
	if n == 0 {
		r.eof = true
	}
	if err != nil && !errors.Is(err, io.EOF) {
		return err
	}
	return nil
}

// Close releases the reader.
func (r *Reader) Close() { r.rd.Close() }
