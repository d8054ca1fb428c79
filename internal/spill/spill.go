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

// WriteRecord appends one tuple already in the storage encoding, such as
// a record returned by Reader.NextView, byte for byte.
func (w *Writer) WriteRecord(rec []byte) error {
	_, err := w.file.Write(rec)
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

// Reader decodes tuples back out of a sealed spill file: into an arena
// through Next, or as a view over its read buffer through NextView.
type Reader struct {
	rd    *pagestore.Reader
	arena *storage.Arena
	view  storage.Tuple // NextView's reusable tuple
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
// of all their files fill the same slabs. A reader used only through
// NextView needs no arena: pass nil.
func NewArenaReader(f *pagestore.File, arena *storage.Arena) (*Reader, error) {
	rd, err := f.NewReader()
	if err != nil {
		return nil, err
	}
	size := int(min(f.Size(), readBufSize))
	return &Reader{rd: rd, arena: arena, buf: make([]byte, 0, size)}, nil
}

// Next returns the next tuple, decoded into the reader's arena; ok is
// false at end of file.
func (r *Reader) Next() (t storage.Tuple, ok bool, err error) {
	t, _, ok, err = r.next(false)
	return t, ok, err
}

// NextView returns the next tuple together with its encoded record; ok is
// false at end of file. Both view the reader's buffer, strings included,
// and stay valid only until the next call to Next or NextView: a caller
// that keeps the tuple must copy it, and one that only forwards it can
// write rec unchanged with Writer.WriteRecord. NextView allocates nothing
// once the reader's buffer and view tuple have grown to fit.
func (r *Reader) NextView() (t storage.Tuple, rec []byte, ok bool, err error) {
	return r.next(true)
}

func (r *Reader) next(view bool) (storage.Tuple, []byte, bool, error) {
	for {
		if r.pos < r.fill {
			var (
				t    storage.Tuple
				n    int
				derr error
			)
			if view {
				t, n, derr = storage.DecodeView(r.buf[r.pos:r.fill], r.view)
			} else {
				t, n, derr = r.arena.Decode(r.buf[r.pos:r.fill])
			}
			if derr == nil {
				if view {
					r.view = t
				}
				rec := r.buf[r.pos : r.pos+n]
				r.pos += n
				return t, rec, true, nil
			}
			if !r.eof {
				if err := r.refill(); err != nil {
					return nil, nil, false, err
				}
				continue
			}
			return nil, nil, false, derr
		}
		if r.eof {
			return nil, nil, false, nil
		}
		if err := r.refill(); err != nil {
			return nil, nil, false, err
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
