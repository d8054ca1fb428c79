package sql

import (
	"context"
	"errors"
	"io"
	"sort"
	"testing"

	"repro/internal/attrs"
	"repro/internal/storage"
	"repro/internal/window"
)

// drainCursor pulls a cursor dry.
func drainCursor(t *testing.T, c *Cursor) []storage.Tuple {
	t.Helper()
	var out []storage.Tuple
	for {
		row, err := c.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("cursor: %v", err)
		}
		out = append(out, row)
	}
}

// cursorQueries spans the execution shapes: lazy projection (no
// finalize), WHERE, eager finalize via ORDER BY, DISTINCT, LIMIT on both
// paths, star, window-less.
var cursorQueries = []string{
	`SELECT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r FROM web_sales`,
	`SELECT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r FROM web_sales WHERE ws_quantity > 50`,
	`SELECT ws_item_sk, ws_order_number, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r FROM web_sales ORDER BY r, ws_item_sk, ws_order_number`,
	`SELECT DISTINCT ws_item_sk FROM web_sales`,
	`SELECT ws_item_sk, ws_order_number FROM web_sales LIMIT 7`,
	`SELECT ws_item_sk, rank() OVER (ORDER BY ws_sold_time_sk) AS r FROM web_sales LIMIT 11`,
	`SELECT DISTINCT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS r FROM web_sales ORDER BY ws_item_sk, r LIMIT 13`,
	`SELECT * FROM emptab`,
	`SELECT empnum, salary FROM emptab ORDER BY salary DESC NULLS LAST, empnum`,
}

// TestCursorMatchesExecute: for every execution shape, the full-statement
// cursor yields the rows the window.Reference oracle derives — same values,
// and the same order wherever ORDER BY fixes one — and its metadata
// reports the final-sort disposition the statement calls for.
func TestCursorMatchesExecute(t *testing.T) {
	r := testRunner(t)
	ctx := context.Background()
	for _, q := range cursorQueries {
		p, err := r.Prepare(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		cur, err := p.Open(ctx, Input{})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		checkReference(t, q, p, drainCursor(t, cur), false)
		meta := cur.Meta()
		if hasOrderBy := len(p.orderKey) > 0; (meta.FinalSort != "none") != hasOrderBy {
			t.Errorf("%s: FinalSort %q with ORDER BY %v", q, meta.FinalSort, hasOrderBy)
		}
		if (meta.Plan == nil) != (p.Plan() == nil) {
			t.Errorf("%s: plan presence differs", q)
		}
	}
}

// TestCursorShardStream: the shard-local cursor skips DISTINCT, ORDER BY
// and LIMIT, yielding every reference row of the WHERE-filtered table.
func TestCursorShardStream(t *testing.T) {
	r := testRunner(t)
	ctx := context.Background()
	q := `SELECT DISTINCT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS r FROM web_sales ORDER BY ws_item_sk LIMIT 3`
	p, err := r.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := p.Open(ctx, Input{ShardLocal: true})
	if err != nil {
		t.Fatal(err)
	}
	got := drainCursor(t, cur)
	if len(got) != p.entry.Table().Len() {
		t.Fatalf("shard stream %d rows, want all %d (LIMIT and DISTINCT must not apply)", len(got), p.entry.Table().Len())
	}
	checkReference(t, q, p, got, true)
}

// referenceRows derives p's output from first principles: WHERE, every
// window function through the O(n²) window.Reference evaluator, the
// projection and — unless shardLocal — a plain DISTINCT and stable ORDER BY
// sort. LIMIT is applied only when ordered reports that the ORDER BY
// covers every output column, so the limited rows are determined.
func referenceRows(t *testing.T, p *Prepared, shardLocal bool) (rows []storage.Tuple, ordered bool) {
	t.Helper()
	wt, err := p.filterWhere(p.entry.Table())
	if err != nil {
		t.Fatal(err)
	}
	vals := make([][]storage.Value, len(p.specs))
	for id, spec := range p.specs {
		if vals[id], err = window.Reference(wt.Rows, spec); err != nil {
			t.Fatal(err)
		}
	}
	for i, row := range wt.Rows {
		ext := append(storage.Tuple{}, row...)
		ext = append(ext, make(storage.Tuple, len(p.specs))...)
		for id := range p.specs {
			ext[p.wfCol[id]] = vals[id][i]
		}
		rows = append(rows, p.projectRow(ext))
	}
	if shardLocal {
		return rows, false
	}
	if p.q.Distinct {
		seen := map[string]bool{}
		var dedup []storage.Tuple
		for _, row := range rows {
			if k := string(storage.AppendTuple(nil, row)); !seen[k] {
				seen[k] = true
				dedup = append(dedup, row)
			}
		}
		rows = dedup
	}
	sort.SliceStable(rows, func(i, j int) bool {
		return storage.CompareSeq(rows[i], rows[j], p.orderKey) < 0
	})
	var covered attrs.Set
	for _, e := range p.orderKey {
		covered = covered.Add(e.Attr)
	}
	ordered = covered.Len() == len(p.outCols)
	if ordered && p.q.Limit >= 0 && int64(len(rows)) > p.q.Limit {
		rows = rows[:p.q.Limit]
	}
	return rows, ordered
}

// checkReference asserts got against referenceRows: row for row when the
// order is determined, as a multiset otherwise, and as a sub-multiset of
// the right size when an undetermined order meets a LIMIT.
func checkReference(t *testing.T, q string, p *Prepared, got []storage.Tuple, shardLocal bool) {
	t.Helper()
	want, ordered := referenceRows(t, p, shardLocal)
	key := func(row storage.Tuple) string { return string(storage.AppendTuple(nil, row)) }
	if ordered {
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, reference %d", q, len(got), len(want))
		}
		for i := range want {
			if key(got[i]) != key(want[i]) {
				t.Fatalf("%s: row %d = %v, reference %v", q, i, got[i], want[i])
			}
		}
		return
	}
	size := len(want)
	if limit := p.q.Limit; !shardLocal && limit >= 0 && int64(size) > limit {
		size = int(limit)
	}
	if len(got) != size {
		t.Fatalf("%s: %d rows, want %d", q, len(got), size)
	}
	left := map[string]int{}
	for _, row := range want {
		left[key(row)]++
	}
	for i, row := range got {
		if left[key(row)]--; left[key(row)] < 0 {
			t.Fatalf("%s: row %d %v not in the reference output", q, i, row)
		}
	}
}

// drain opens p over in and collects its rows into Result.Table: the
// buffered form the sql tests compare.
func drain(ctx context.Context, p *Prepared, in Input) (*Result, error) {
	cur, err := p.Open(ctx, in)
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	res := *cur.Meta()
	res.Table = storage.NewTable(storage.NewSchema(cur.Columns()...))
	for {
		row, err := cur.Next()
		if err == io.EOF {
			return &res, nil
		}
		if err != nil {
			return nil, err
		}
		res.Table.Rows = append(res.Table.Rows, row)
	}
}

// drainQuery prepares src on r and drains its full-statement cursor.
func drainQuery(r *Runner, src string) (*Result, error) {
	return drainQueryContext(context.Background(), r, src)
}

func drainQueryContext(ctx context.Context, r *Runner, src string) (*Result, error) {
	p, err := r.Prepare(src)
	if err != nil {
		return nil, err
	}
	return drain(ctx, p, Input{})
}

// TestCursorLimitStopsEarly: the lazy path stops yielding at LIMIT
// without touching later source rows.
func TestCursorLimitStopsEarly(t *testing.T) {
	r := testRunner(t)
	p, err := r.Prepare(`SELECT ws_order_number FROM web_sales LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := p.StreamContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := drainCursor(t, cur); len(got) != 5 {
		t.Fatalf("got %d rows, want 5", len(got))
	}
}

// TestCursorCancelMidStream: a context cancelled between pulls surfaces
// at the next row stride on the lazy path.
func TestCursorCancelMidStream(t *testing.T) {
	r := testRunner(t)
	p, err := r.Prepare(`SELECT ws_order_number FROM web_sales`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cur, err := p.StreamContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); err != nil {
		t.Fatalf("first row: %v", err)
	}
	cancel()
	var sawErr error
	for i := 0; i < 2*cursorCtxStride; i++ {
		if _, err := cur.Next(); err != nil {
			sawErr = err
			break
		}
	}
	if !errors.Is(sawErr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled within one stride", sawErr)
	}
}

// TestCursorCloseIsEOF: Close ends iteration and is idempotent.
func TestCursorCloseIsEOF(t *testing.T) {
	r := testRunner(t)
	p, err := r.Prepare(`SELECT ws_order_number FROM web_sales`)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := p.StreamContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); err != nil {
		t.Fatal(err)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); err != io.EOF {
		t.Fatalf("Next after Close = %v, want io.EOF", err)
	}
}
