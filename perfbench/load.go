package main

import (
	"context"
	"fmt"
	"math"
	"time"

	windowdb "repro"
	"repro/internal/storage"
)

// outcome is one query as the client saw it.
type outcome struct {
	q        int           // index into the workload's mix
	lat      time.Duration // from the send to the last row
	firstRow time.Duration // from the send to the first row
	rows     int
	digest   uint64
	cols     []storage.Column
	meta     *windowdb.QueryMetrics
	traced   bool
	err      error
}

// runQuery sends one statement, drains the cursor while digesting every
// row, and records the span tree of the request when tracing.
func runQuery(ctx context.Context, qr windowdb.Queryer, q queryDef, tr *tracer, sent time.Time) outcome {
	root := tr.Begin(nil, "client.query "+q.name)
	defer root.End()
	o := outcome{traced: tr != nil}
	open := tr.Begin(root, "client.first_row")
	rows, err := qr.QueryContext(ctx, q.sql)
	if err != nil {
		open.End()
		o.err = fmt.Errorf("%s: %w", q.name, err)
		o.lat = time.Since(sent)
		return o
	}
	o.cols = rows.ColumnTypes()
	var drain *active
	for rows.Next() {
		if o.rows == 0 {
			o.firstRow = time.Since(sent)
			open.End()
			drain = tr.Begin(root, "client.drain")
		}
		o.rows++
		o.digest += rowHash(rows.Row())
	}
	if o.rows == 0 {
		open.End()
	}
	drain.End()
	o.lat = time.Since(sent)
	if err := rows.Err(); err != nil {
		o.err = fmt.Errorf("%s: %w", q.name, err)
		return o
	}
	o.meta = rows.Metrics()
	if m := o.meta; m != nil {
		root.Count("rows", int64(o.rows))
		root.Count("blocks_read", m.BlocksRead)
		root.Count("blocks_written", m.BlocksWritten)
		root.Count("comparisons", m.Comparisons)
		if m.Queued > 0 {
			root.Reported("service.queue_wait", 0, m.Queued)
		}
		if m.Exec != nil {
			var off time.Duration
			for i, st := range m.Exec.Steps {
				root.Reported(fmt.Sprintf("exec.step %d %s", i, st.Reorder), m.Queued+off, st.Duration)
				off += st.Duration
			}
		}
		if m.Trace != nil && m.Exec == nil {
			root.ReportedTree("program.", m.Trace, 0)
		}
	}
	return o
}

// loadResult is what one measured window produced.
type loadResult struct {
	out    []outcome
	wall   time.Duration
	late   []float64 // the client's gaps between a result and its next send, ms
	passes int       // complete passes over the mix
}

// closedLoop runs whole passes over the mix from one client, each query
// sent as soon as the previous one finished, until at least d has passed.
// Lateness is the client's own gap between a result and the next send
// (digest bookkeeping and scheduling). With a tracer, odd passes are
// traced and even ones are not, so the two halves share conditions.
func closedLoop(ctx context.Context, qr windowdb.Queryer, mix []queryDef, d time.Duration, minPasses int, tr *tracer) loadResult {
	var res loadResult
	start := time.Now()
	last := time.Time{}
	for res.passes < minPasses || time.Since(start) < d {
		for i, q := range mix {
			sent := time.Now()
			if !last.IsZero() {
				res.late = append(res.late, ms(sent.Sub(last)))
			}
			var t *tracer
			if res.passes%2 == 1 {
				t = tr
			}
			o := runQuery(ctx, qr, q, t, sent)
			o.q = i
			res.out = append(res.out, o)
			last = time.Now()
		}
		res.passes++
	}
	res.wall = time.Since(start)
	return res
}

// mixQuantile estimates the q-quantile latency of a typical statement of
// the mix: the geometric mean of the statements' median latencies times
// the pooled q-quantile of every query's latency relative to its own
// statement's median. Pooling raw latencies instead would let each
// statement's share of the arrivals decide which statement a quantile
// lands on, and a quantile at the edge between two statements' latency
// clusters jumps between them from run to run.
func mixQuantile(out []outcome, nstmt int, q float64) float64 {
	by := make([][]float64, nstmt)
	for _, o := range out {
		by[o.q] = append(by[o.q], ms(o.lat))
	}
	logSum, n := 0.0, 0
	var rel []float64
	for _, xs := range by {
		if len(xs) == 0 {
			continue
		}
		m := median(xs)
		logSum += math.Log(m)
		n++
		for _, x := range xs {
			rel = append(rel, x/m)
		}
	}
	return math.Exp(logSum/float64(n)) * quantile(rel, q)
}

// tracingOverhead compares the median latency of the traced outcomes with
// that of the untraced ones, in percent.
func tracingOverhead(out []outcome) float64 {
	var on, off []float64
	for _, o := range out {
		if o.traced {
			on = append(on, ms(o.lat))
		} else {
			off = append(off, ms(o.lat))
		}
	}
	return (median(on)/median(off) - 1) * 100
}

func rowsOf(out []outcome) int64 {
	var n int64
	for _, o := range out {
		n += int64(o.rows)
	}
	return n
}
