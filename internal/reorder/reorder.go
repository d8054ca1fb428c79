// Package reorder implements the paper's three tuple-reordering operators as
// streaming executors over segmented tuple streams:
//
//   - FullSort (FS): external sort of the whole input; output is a single
//     totally ordered segment.
//   - HashedSort (HS, Section 3.2): hash-partition on WHK ⊆ WPK into
//     buckets of complete WHK-groups, then sort each bucket on →WPK ∘ WOK;
//     buckets are emitted as segments in arbitrary order — which Section 3's
//     key observation shows is irrelevant to window-function correctness.
//     Includes the spill policy (flush a victim bucket when memory fills;
//     a flushed bucket stays disk-bound) and the most-frequent-value bypass
//     optimization.
//   - SegmentedSort (SS, Section 3.3): within each existing segment, detect
//     α-groups (runs of equal α values, α being the shared prefix between
//     the target key and the input ordering) and sort each independently on
//     the β remainder. Falls back to whole-segment sorts when α is empty
//     (applicable only when X ≠ ∅).
//
// All operators honor a unit reorder memory budget; spill traffic flows
// through pagestore for exact block-I/O accounting, and key comparisons are
// counted.
package reorder

import (
	"repro/internal/attrs"
	"repro/internal/pagestore"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/xsort"
)

// Config carries the resources every reorder operator needs.
type Config struct {
	// MemoryBytes is the unit reorder memory M (Section 6.1). ≤0 disables
	// the budget (everything in memory).
	MemoryBytes int
	// Store receives spill traffic (runs, buckets).
	Store *pagestore.Store
	// Comparisons, if non-nil, accumulates key comparisons.
	Comparisons *int64
	// RunFormation selects the external sort's run formation policy.
	RunFormation xsort.RunFormation
	// Reserve is the number of spare slots each tuple read back from a
	// spill carries for the caller's in-place extension (xsort.Sorter).
	Reserve int
}

func (c Config) sorter(key attrs.Seq) *xsort.Sorter {
	return &xsort.Sorter{
		Key:          key,
		MemoryBytes:  c.MemoryBytes,
		Store:        c.Store,
		Comparisons:  c.Comparisons,
		RunFormation: c.RunFormation,
		Reserve:      c.Reserve,
	}
}

// streamInput adapts a stream to a sort input, dropping boundaries.
func streamInput(in stream.Stream) xsort.Input {
	return func() (storage.Tuple, bool) {
		r, ok := in.Next()
		if !ok {
			return nil, false
		}
		return r.Tuple, true
	}
}

// FSStats reports a FullSort execution.
type FSStats struct {
	Sort xsort.Stats
}

// FullSort reorders the input into a single segment totally ordered on key.
func FullSort(in stream.Stream, key attrs.Seq, cfg Config) (stream.Stream, FSStats, error) {
	var st FSStats
	sorted, sstats, err := cfg.sorter(key).Sort(streamInput(in), 0)
	st.Sort = sstats
	if err != nil {
		in.Close()
		return nil, st, err
	}
	if cerr := in.Close(); cerr != nil {
		return nil, st, cerr
	}
	return stream.FromTuples(sorted), st, nil
}
