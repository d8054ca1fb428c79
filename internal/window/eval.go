package window

import (
	"fmt"

	"repro/internal/attrs"
	"repro/internal/storage"
	"repro/internal/stream"
)

// Evaluate computes spec over a stream that matches it (Definition 2) and
// returns a stream of the same rows extended with the derived column. The
// evaluation is the second logical step of Section 1: window partitions are
// detected by WPK value change during a single sequential scan (tuples of
// one WPK-group are consecutive in a matched stream, and — because segments
// are disjoint on X ⊆ WPK — a group never spans segments), each partition is
// buffered, the function is invoked per row, and rows flow on with their
// original segment boundaries.
//
// Evaluate does not verify the match; feeding a non-matching stream yields
// wrong results exactly as it would in a database executor. The planner
// guarantees matching (core.Plan.Validate), and tests cross-check against
// the O(n²) reference evaluator.
func Evaluate(in stream.Stream, spec Spec) (stream.Stream, error) {
	if spec.Kind.needsArg() && spec.Arg < 0 {
		return nil, fmt.Errorf("window: %s requires an argument column", spec.Kind)
	}
	return &evalStream{in: in, spec: spec, pk: spec.PK.IDs()}, nil
}

// evalStream buffers one partition at a time.
type evalStream struct {
	in   stream.Stream
	spec Spec
	pk   []attrs.ID // spec.PK.IDs(), computed once

	part       []stream.Row    // current partition with boundaries
	tuples     []storage.Tuple // part's tuples, the function's input
	derived    []storage.Value
	pos        int
	pending    stream.Row
	hasPending bool
	primed     bool
	done       bool
	err        error
}

func (e *evalStream) Next() (stream.Row, bool) {
	for {
		if e.pos < len(e.part) {
			r := e.part[e.pos]
			// Extend, not Append: executor rows are arena-allocated with
			// spare capacity reserved per chain step, so the derived column
			// lands in place; tuples without spare capacity still copy.
			out := stream.Row{Tuple: r.Tuple.Extend(e.derived[e.pos]), Boundary: r.Boundary}
			e.pos++
			return out, true
		}
		if e.done {
			return stream.Row{}, false
		}
		if err := e.fillPartition(); err != nil {
			e.err = err
			return stream.Row{}, false
		}
		if len(e.part) == 0 {
			e.done = true
			return stream.Row{}, false
		}
	}
}

// fillPartition buffers the next WPK-group and computes the function.
func (e *evalStream) fillPartition() error {
	if !e.primed {
		r, ok := e.in.Next()
		if !ok {
			e.part = nil
			e.done = true
			return e.in.Close()
		}
		e.pending, e.hasPending = r, true
		e.primed = true
	}
	if !e.hasPending {
		e.part = nil
		e.done = true
		return nil
	}
	head := e.pending
	e.hasPending = false
	// The previous partition has been emitted in full, so its buffers are
	// free to reuse.
	part := append(e.part[:0], head)
	for {
		r, ok := e.in.Next()
		if !ok {
			if err := e.in.Close(); err != nil {
				return err
			}
			break
		}
		if !storage.EqualOnIDs(head.Tuple, r.Tuple, e.pk) {
			e.pending, e.hasPending = r, true
			break
		}
		part = append(part, r)
	}
	tuples := e.tuples[:0]
	for _, r := range part {
		tuples = append(tuples, r.Tuple)
	}
	e.tuples = tuples
	derived, err := computePartition(tuples, e.spec)
	if err != nil {
		return err
	}
	e.part = part
	e.derived = derived
	e.pos = 0
	return nil
}

func (e *evalStream) Close() error { return e.err }

// EvaluateSlice is the materialized convenience form used by tests and the
// reference paths: it evaluates spec over rows (which must already be
// arranged in matching order) and returns the derived column.
func EvaluateSlice(rows []storage.Tuple, spec Spec) ([]storage.Value, error) {
	out := make([]storage.Value, 0, len(rows))
	pk := spec.PK.IDs()
	start := 0
	for start < len(rows) {
		end := start + 1
		for end < len(rows) && storage.EqualOnIDs(rows[start], rows[end], pk) {
			end++
		}
		vals, err := computePartition(rows[start:end], spec)
		if err != nil {
			return nil, err
		}
		out = append(out, vals...)
		start = end
	}
	return out, nil
}
