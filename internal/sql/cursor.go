package sql

import (
	"context"
	"errors"
	"io"

	"repro/internal/storage"
)

// Cursor is the pull seam over a prepared statement's execution: an
// incremental iterator over the statement's output rows. The phases that
// inherently materialize — WHERE filtering and the window chain's
// reordering operators — run eagerly when the cursor is built (Open);
// what the cursor defers is everything after the final chain segment.
// For statements without DISTINCT or ORDER BY the projection runs lazily,
// one row per Next, honoring LIMIT by early termination and the context
// at a fixed row stride; statements that need a finalize pass (DISTINCT
// deduplication, the final sort) project and finalize eagerly and then
// stream the finalized buffer.
//
// A Cursor is single-consumer and not safe for concurrent use; a Prepared
// may serve any number of concurrent cursors.
type Cursor struct {
	cols []storage.Column
	meta *Result // Table nil: the executed statement's metadata
	ctx  context.Context

	src    []storage.Tuple
	pick   []int // non-nil: lazily project each row through pick
	limit  int64 // remaining LIMIT budget; -1 = unlimited
	pos    int
	stride int
	closed bool
}

// cursorCtxStride is how many rows the lazy path emits between context
// checks: small enough that a cancelled client stops promptly, large
// enough that the check never shows up in a profile.
const cursorCtxStride = 128

// Columns returns the output schema.
func (c *Cursor) Columns() []storage.Column { return c.cols }

// Meta returns the executed statement's metadata — the plan, executor
// metrics, final-sort disposition and parallel degree of Result, with
// Table nil. It is valid from cursor creation (the chain has already
// run).
func (c *Cursor) Meta() *Result { return c.meta }

// Next returns the next output row, or io.EOF when the stream is
// exhausted (or the cursor closed), or the context's error when it was
// cancelled mid-stream. Returned tuples are owned by the caller: lazily
// projected rows are freshly allocated, buffered rows are immutable.
func (c *Cursor) Next() (storage.Tuple, error) {
	if c.closed || c.limit == 0 || c.pos >= len(c.src) {
		return nil, io.EOF
	}
	c.stride++
	if c.stride >= cursorCtxStride {
		c.stride = 0
		if err := c.ctx.Err(); err != nil {
			return nil, err
		}
	}
	row := c.src[c.pos]
	c.pos++
	if c.limit > 0 {
		c.limit--
	}
	if c.pick != nil {
		row = c.projectRow(row)
	}
	return row, nil
}

func (c *Cursor) projectRow(row storage.Tuple) storage.Tuple {
	t := make(storage.Tuple, len(c.pick))
	for ci, src := range c.pick {
		t[ci] = row[src]
	}
	return t
}

// Close releases the cursor; further Next calls return io.EOF. Idempotent.
func (c *Cursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.src = nil
	return nil
}

// Input selects what one execution of a prepared statement reads and how
// much of the statement it runs. The zero value runs the whole statement
// over the catalog entry's rows.
type Input struct {
	// Table, when set, replaces the catalog entry's rows. It must share the
	// entry's schema: a scatter-gather coordinator executes a plan
	// prepared against a schema-only stub over rows just gathered from the
	// shards. The gathered concatenation arrives in arbitrary order, which
	// is exactly the Unordered input property the plan was built from, so
	// the chain's first order-rebuilding reorder (FS/HS) absorbs it.
	Table *storage.Table
	// Shared, when set, is a materialized scan+reorder subplan
	// (subplan.go): the execution runs only the statement's derivation
	// suffix over it. ChargeScan merges the segment's scan metrics into
	// this execution's, set by the execution that actually ran the scan.
	Shared     *SharedSegment
	ChargeScan bool
	// ShardLocal runs only the shard-local part of the statement: WHERE,
	// the window chain and projection. DISTINCT, ORDER BY and LIMIT are
	// skipped; only a coordinator can apply them correctly over the
	// concatenation of every shard's output (FinalizeConcat). Meaningful
	// only once the caller established Prepared.ShardLocal for the
	// cluster's shard key.
	ShardLocal bool
}

// Open executes the prepared statement over in and returns a cursor over
// its output: the single execution entry point. WHERE filtering and the
// window chain run before Open returns (honoring ctx at step
// boundaries); the cursor defers the rest as its type comment describes.
// Open is safe for concurrent use on one Prepared.
func (p *Prepared) Open(ctx context.Context, in Input) (*Cursor, error) {
	var (
		executed *storage.Table
		result   *Result
		err      error
	)
	switch {
	case in.Shared != nil && in.Table != nil:
		return nil, errors.New("sql: an execution reads a table or a shared segment, not both")
	case in.Shared != nil:
		executed, result, err = p.runSuffix(ctx, in.Shared, in.ChargeScan)
	case in.Table != nil:
		executed, result, err = p.runChain(ctx, in.Table)
	default:
		executed, result, err = p.runChain(ctx, p.entry.Table())
	}
	if err != nil {
		return nil, err
	}
	cur := &Cursor{cols: p.outCols, src: executed.Rows, pick: p.pick, meta: result, ctx: ctx, limit: -1}
	switch {
	case in.ShardLocal:
		// DISTINCT, ORDER BY and LIMIT are the coordinator's.
	case p.q.Distinct || len(p.orderKey) > 0:
		// DISTINCT and ORDER BY need every projected row before the first
		// output row is known; project and finalize eagerly (LIMIT
		// included) and stream the finalized buffer.
		out := p.project(executed)
		p.finalize(out, result)
		cur.src, cur.pick = out.Rows, nil
	default:
		cur.limit = p.q.Limit
	}
	return cur, nil
}

// StreamContext is Open over the catalog entry's rows.
func (p *Prepared) StreamContext(ctx context.Context) (*Cursor, error) {
	return p.Open(ctx, Input{})
}

// TableCursor wraps an already-materialized result as a Cursor, for
// serving layers that had to buffer rows (a coordinator finalizing a shard
// concatenation) but speak the cursor surface outward. meta may carry the
// table too; the cursor streams t's rows as-is.
func TableCursor(t *storage.Table, meta *Result) *Cursor {
	return &Cursor{cols: t.Schema.Columns, src: t.Rows, meta: meta, ctx: context.Background(), limit: -1}
}
