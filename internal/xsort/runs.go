package xsort

import (
	"container/heap"
	"sort"

	"repro/internal/spill"
	"repro/internal/storage"
)

// formRunsReplacement forms initial runs with replacement selection: a heap
// of (runID, tuple) keeps emitting the smallest tuple of the current run;
// incoming tuples that sort below the last emitted key are deferred to the
// next run. Expected run length is 2M for random input (the assumption
// behind Eq. 1 of the paper), and already-sorted input yields a single run.
//
// buf holds the tuples that filled the memory budget; next supplies the rest.
func (s *Sorter) formRunsReplacement(buf []storage.Tuple, next Input) ([]*run, error) {
	h := &rsHeap{sorter: s, items: make([]rsItem, len(buf))}
	for i, t := range buf {
		h.items[i] = rsItem{run: 0, tuple: t}
	}
	h.init()

	var (
		runs    []*run
		writer  *spill.Writer
		current = 0
		last    storage.Tuple
	)
	fail := func(err error) ([]*run, error) {
		if writer != nil {
			writer.File().Release()
		}
		releaseRuns(runs)
		return nil, err
	}
	closeCurrent := func() error {
		if writer == nil {
			return nil
		}
		f, err := writer.Finish()
		if err != nil {
			return err
		}
		runs = append(runs, &run{file: f})
		writer = nil
		return nil
	}
	for len(h.items) > 0 {
		item := h.items[0]
		if item.run != current {
			if err := closeCurrent(); err != nil {
				return fail(err)
			}
			current = item.run
			last = nil
		}
		if writer == nil {
			w, err := spill.NewWriter(s.Store)
			if err != nil {
				return fail(err)
			}
			writer = w
		}
		h.pop()
		if err := writer.Write(item.tuple); err != nil {
			return fail(err)
		}
		last = item.tuple
		if t, ok := next(); ok {
			it := rsItem{run: current, tuple: t}
			if s.less(t, last) {
				it.run = current + 1
			}
			h.push(it)
		}
	}
	if err := closeCurrent(); err != nil {
		return fail(err)
	}
	return runs, nil
}

// rsItem is a heap entry: ordering is (run, key) so the current run drains
// before the next run begins.
type rsItem struct {
	run   int
	tuple storage.Tuple
}

// rsHeap is a binary min-heap of rsItems. Its init, push and pop sift in
// exactly container/heap's order, so the comparison count — a paper cost
// counter — is the same as with the container/heap interface, without
// boxing every item into an interface value.
type rsHeap struct {
	items  []rsItem
	sorter *Sorter
}

func (h *rsHeap) less(i, j int) bool {
	a, b := &h.items[i], &h.items[j]
	if a.run != b.run {
		return a.run < b.run
	}
	return h.sorter.less(a.tuple, b.tuple)
}

func (h *rsHeap) swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }

func (h *rsHeap) init() {
	n := len(h.items)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

func (h *rsHeap) push(it rsItem) {
	h.items = append(h.items, it)
	h.up(len(h.items) - 1)
}

// pop removes the minimum; the caller has already read it from items[0].
func (h *rsHeap) pop() {
	n := len(h.items) - 1
	h.swap(0, n)
	h.down(0, n)
	h.items[n] = rsItem{}
	h.items = h.items[:n]
}

func (h *rsHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

func (h *rsHeap) down(i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2 // right child
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
}

// formRunsLoadSort is the ablation alternative: fill memory, quicksort,
// spill, repeat. Runs have length M instead of 2M.
func (s *Sorter) formRunsLoadSort(buf []storage.Tuple, next Input) ([]*run, error) {
	var runs []*run
	spillChunk := func(chunk []storage.Tuple) error {
		sort.SliceStable(chunk, func(i, j int) bool { return s.less(chunk[i], chunk[j]) })
		w, err := spill.NewWriter(s.Store)
		if err != nil {
			return err
		}
		for _, t := range chunk {
			if err := w.Write(t); err != nil {
				w.File().Release()
				return err
			}
		}
		f, err := w.Finish()
		if err != nil {
			w.File().Release()
			return err
		}
		runs = append(runs, &run{file: f})
		return nil
	}
	chunk := buf
	bytes := 0
	for _, t := range chunk {
		bytes += t.Size()
	}
	for {
		t, ok := next()
		if !ok {
			break
		}
		if s.MemoryBytes > 0 && bytes+t.Size() > s.MemoryBytes && len(chunk) > 0 {
			if err := spillChunk(chunk); err != nil {
				releaseRuns(runs)
				return nil, err
			}
			chunk = nil
			bytes = 0
		}
		chunk = append(chunk, t)
		bytes += t.Size()
	}
	if len(chunk) > 0 {
		if err := spillChunk(chunk); err != nil {
			releaseRuns(runs)
			return nil, err
		}
	}
	return runs, nil
}

// mergeSource is one leg of a multiway merge. In a view merge the head
// tuple views its reader's buffer and rec is its encoded record; both stay
// valid until the leg advances.
type mergeSource struct {
	rd    *spill.Reader
	tuple storage.Tuple
	rec   []byte
	view  bool
}

// advance moves the leg to its next tuple; ok is false at end of file.
func (src *mergeSource) advance() (ok bool, err error) {
	if src.view {
		src.tuple, src.rec, ok, err = src.rd.NextView()
	} else {
		src.tuple, ok, err = src.rd.Next()
	}
	return ok, err
}

type mergeHeap struct {
	items  []*mergeSource
	sorter *Sorter
}

func (h *mergeHeap) Len() int { return len(h.items) }
func (h *mergeHeap) Less(i, j int) bool {
	return h.sorter.less(h.items[i].tuple, h.items[j].tuple)
}
func (h *mergeHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *mergeHeap) Push(x interface{}) { h.items = append(h.items, x.(*mergeSource)) }
func (h *mergeHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}

// close closes the readers of every source still in the heap.
func (h *mergeHeap) close() {
	for _, src := range h.items {
		src.rd.Close()
	}
	h.items = nil
}

// startMerge opens readers for all runs and primes the heap. A non-nil
// arena receives every decoded tuple; a nil arena makes a view merge, whose
// legs decode each head in place over their read buffers. On error it
// closes the readers it opened.
func (s *Sorter) startMerge(runs []*run, arena *storage.Arena) (*mergeHeap, error) {
	h := &mergeHeap{sorter: s}
	for _, r := range runs {
		rd, err := spill.NewArenaReader(r.file, arena)
		if err != nil {
			h.close()
			return nil, err
		}
		src := &mergeSource{rd: rd, view: arena == nil}
		ok, err := src.advance()
		if err != nil {
			rd.Close()
			h.close()
			return nil, err
		}
		if !ok {
			rd.Close()
			continue
		}
		h.items = append(h.items, src)
	}
	heap.Init(h)
	return h, nil
}

// advanceHead moves the heap's smallest leg to its next tuple and restores
// the heap, dropping the leg at its end of file.
func advanceHead(h *mergeHeap) error {
	src := h.items[0]
	ok, err := src.advance()
	if err != nil {
		return err
	}
	if ok {
		heap.Fix(h, 0)
	} else {
		src.rd.Close()
		heap.Pop(h)
	}
	return nil
}

// mergeToRun merges runs into a single re-materialized run. It releases
// the input runs on every path, and its output run on error. The merge
// moves encoded records: each leg's head is decoded as a view for the
// comparisons, and its record is written to the output unchanged before
// the leg advances, so the pass allocates nothing per tuple and writes
// exactly the bytes a decode and re-encode would.
func (s *Sorter) mergeToRun(runs []*run) (*run, error) {
	defer releaseRuns(runs)
	h, err := s.startMerge(runs, nil)
	if err != nil {
		return nil, err
	}
	defer h.close()
	w, err := spill.NewWriter(s.Store)
	if err != nil {
		return nil, err
	}
	for h.Len() > 0 {
		err := w.WriteRecord(h.items[0].rec)
		if err == nil {
			err = advanceHead(h)
		}
		if err != nil {
			w.File().Release()
			return nil, err
		}
	}
	f, err := w.Finish()
	if err != nil {
		w.File().Release()
		return nil, err
	}
	return &run{file: f}, nil
}

// mergeToSlice merges the final wave of runs straight into memory (this is
// the pipelined final merge: no output re-materialization). It releases
// the input runs on every path. The result's tuples live on, so they come
// from one arena with the sorter's reserve.
func (s *Sorter) mergeToSlice(runs []*run, sizeHint int) ([]storage.Tuple, error) {
	defer releaseRuns(runs)
	h, err := s.startMerge(runs, storage.NewArena(s.Reserve))
	if err != nil {
		return nil, err
	}
	defer h.close()
	out := make([]storage.Tuple, 0, sizeHint)
	for h.Len() > 0 {
		out = append(out, h.items[0].tuple)
		if err := advanceHead(h); err != nil {
			return nil, err
		}
	}
	return out, nil
}
