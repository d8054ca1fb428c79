// Package xsort implements the external merge sort underlying all three
// reordering operators of the paper: replacement-selection run formation
// (expected run length 2M, Section 3.4) followed by F-way merging, with a
// fully in-memory fast path when the input fits in the sort budget.
//
// All spill traffic goes through a pagestore.Store so experiments observe
// exact block-I/O counts, and every key comparison is counted, giving the
// second currency of the paper's cost analysis (Section 3.4's
// O(n log(n/k)) vs O(n log n) argument for Segmented Sort).
package xsort

import (
	"fmt"
	"sort"

	"repro/internal/attrs"
	"repro/internal/pagestore"
	"repro/internal/storage"
)

// Input supplies tuples one at a time; it returns false when exhausted.
type Input func() (storage.Tuple, bool)

// SliceInput adapts a tuple slice to an Input.
func SliceInput(tuples []storage.Tuple) Input {
	i := 0
	return func() (storage.Tuple, bool) {
		if i >= len(tuples) {
			return nil, false
		}
		t := tuples[i]
		i++
		return t, true
	}
}

// RunFormation selects the run-formation algorithm.
type RunFormation uint8

const (
	// ReplacementSelection forms runs of expected length 2M with a
	// tournament heap (the paper's assumption in Eq. 1).
	ReplacementSelection RunFormation = iota
	// LoadSortStore forms runs of length M by fill-sort-spill; provided for
	// the ablation benchmark on run formation policy.
	LoadSortStore
)

// Sorter configures one external sort. The zero value is not usable; set at
// least Key and Store. MemoryBytes ≤ 0 means "unlimited" (always in-memory).
type Sorter struct {
	Key          attrs.Seq
	MemoryBytes  int
	Store        *pagestore.Store
	RunFormation RunFormation
	// Reserve is the number of spare slots each tuple decoded by the final
	// merge carries (storage.Arena), so the caller can Extend it in place.
	Reserve int

	// Comparisons, if non-nil, accumulates key comparison counts.
	Comparisons *int64
}

// Stats reports what one Sort did.
type Stats struct {
	Tuples      int
	InitialRuns int   // 0 when fully in-memory
	MergePasses int   // intermediate passes that re-materialized runs
	InMemory    bool  // true when no spill occurred
	Comparisons int64 // key comparisons performed by this sort
}

func (s *Sorter) less(a, b storage.Tuple) bool {
	if s.Comparisons != nil {
		*s.Comparisons++
	}
	return storage.CompareSeq(a, b, s.Key) < 0
}

// SortTuples sorts a materialized slice honoring the memory budget: if the
// slice fits in MemoryBytes it is sorted in place, otherwise it is spilled
// and merged externally. It returns the sorted tuples and sort statistics.
func (s *Sorter) SortTuples(tuples []storage.Tuple) ([]storage.Tuple, Stats, error) {
	return s.sort(SliceInput(tuples), len(tuples))
}

// Sort consumes the input and returns the fully sorted tuples. sizeHint may
// be 0 when unknown.
func (s *Sorter) Sort(in Input, sizeHint int) ([]storage.Tuple, Stats, error) {
	return s.sort(in, sizeHint)
}

func (s *Sorter) sort(in Input, sizeHint int) (out []storage.Tuple, st Stats, err error) {
	start := int64(0)
	if s.Comparisons != nil {
		start = *s.Comparisons
	}
	defer func() {
		if s.Comparisons != nil {
			st.Comparisons = *s.Comparisons - start
		}
	}()

	// Phase 0: buffer input until the memory budget is exceeded. If it never
	// is, sort in memory and return.
	var (
		buf      []storage.Tuple
		bufBytes int
	)
	if sizeHint > 0 {
		buf = make([]storage.Tuple, 0, sizeHint)
	}
	overflowed := false
	var pending storage.Tuple
	for {
		t, ok := in()
		if !ok {
			break
		}
		if s.MemoryBytes > 0 && bufBytes+t.Size() > s.MemoryBytes && len(buf) > 0 {
			pending = t
			overflowed = true
			break
		}
		buf = append(buf, t)
		bufBytes += t.Size()
	}
	st.Tuples = len(buf)
	if !overflowed {
		sort.SliceStable(buf, func(i, j int) bool { return s.less(buf[i], buf[j]) })
		st.InMemory = true
		out = buf
		return out, st, nil
	}
	if s.Store == nil {
		return nil, st, fmt.Errorf("xsort: input exceeds memory budget and no spill store configured")
	}

	// Phase 1: run formation over (buffered ∪ pending ∪ rest of input).
	rest := func() (storage.Tuple, bool) {
		if pending != nil {
			t := pending
			pending = nil
			return t, true
		}
		t, ok := in()
		if ok {
			st.Tuples++
		}
		return t, ok
	}
	st.Tuples++ // pending
	var runs []*run
	switch s.RunFormation {
	case LoadSortStore:
		runs, err = s.formRunsLoadSort(buf, rest)
	default:
		runs, err = s.formRunsReplacement(buf, rest)
	}
	if err != nil {
		releaseRuns(runs)
		return nil, st, err
	}
	st.InitialRuns = len(runs)

	// Phase 2: merge down to one logical stream. Intermediate passes
	// re-materialize; the final merge streams directly into the result.
	// Each merge releases the runs it consumes, on every path.
	fanIn := s.mergeOrder()
	for len(runs) > fanIn {
		var next []*run
		for lo := 0; lo < len(runs); lo += fanIn {
			hi := min(lo+fanIn, len(runs))
			merged, err := s.mergeToRun(runs[lo:hi])
			if err != nil {
				releaseRuns(runs[hi:])
				releaseRuns(next)
				return nil, st, err
			}
			next = append(next, merged)
		}
		runs = next
		st.MergePasses++
	}
	out, err = s.mergeToSlice(runs, st.Tuples)
	if err != nil {
		return nil, st, err
	}
	return out, st, nil
}

// mergeOrder returns F, the number of runs merged simultaneously: one input
// page per run plus one output page must fit in the budget.
func (s *Sorter) mergeOrder() int {
	bs := s.Store.BlockSize()
	f := s.MemoryBytes/bs - 1
	if f < 2 {
		f = 2
	}
	return f
}

type run struct {
	file *pagestore.File
}

func releaseRuns(runs []*run) {
	for _, r := range runs {
		if r != nil && r.file != nil {
			r.file.Release()
		}
	}
}
