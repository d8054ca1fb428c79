package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/datagen"
	"repro/internal/storage"
)

// appendBatches pre-generates the rows a workload appends, from the
// workload seed, so a run's inputs are fixed before it starts. Each batch
// is one item's burst of new sales, and the items rotate: every append
// re-ranks one partition of the maintained statement, and partitions grow
// evenly instead of one hot partition growing through the run.
func appendBatches(baseRows int, seed int64, n, size int) [][]storage.Tuple {
	s := datagen.NewAppendStream(datagen.AppendStreamConfig{
		Base: datagen.WebSalesConfig{Rows: baseRows, Seed: seed},
		Seed: seed + 1,
	})
	items := baseRows / 353 // datagen's ws_item_sk cardinality
	if items < 1 {
		items = 1
	}
	out := make([][]storage.Tuple, n)
	for i := range out {
		out[i] = s.Next(size)
		for _, row := range out[i] {
			row[itemCol] = storage.Int(int64(i%items) + 1)
		}
	}
	return out
}

const itemCol = 3 // ws_item_sk in datagen.WebSalesSchema

// ingestResult is what one writer schedule produced.
type ingestResult struct {
	ackMs  []float64 // append call to acknowledgement, in send order
	lagMs  []float64 // append call to the first delta row carrying its watermark, in send order
	failed int       // batches refused, lost or delivered wrong
	errs   []error
	wall   time.Duration
}

const (
	deltaQuiet   = 5 * time.Millisecond // cursor silence that ends a batch's delta
	deltaTimeout = 10 * time.Second     // a batch not visible by then counts as lost
)

// subscribeSQL is the maintained statement: the Q6 chain.
var subscribeSQL = "SUBSCRIBE " + paperMix()[5].sql

// runIngest opens a SUBSCRIBE cursor, appends the batches on a fixed
// schedule from one writer, and times each batch's acknowledgement and
// the arrival of its delta rows. Every delta row must carry the watermark
// of an acknowledged append, and each append's rows must all arrive
// tagged "append" under its watermark.
func runIngest(ctx context.Context, t ingestTarget, batches [][]storage.Tuple, interval time.Duration, initRows int) (ingestResult, error) {
	var res ingestResult
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	rows, err := t.QueryContext(sctx, subscribeSQL)
	if err != nil {
		return res, fmt.Errorf("subscribe: %w", err)
	}
	opIdx, wmIdx := -1, -1
	for i, c := range rows.ColumnTypes() {
		switch c.Name {
		case "_op":
			opIdx = i
		case "_watermark":
			wmIdx = i
		}
	}
	if opIdx < 0 || wmIdx < 0 {
		rows.Close()
		return res, fmt.Errorf("subscribe: no _op/_watermark columns in %v", rows.Columns())
	}
	for i := 0; i < initRows; i++ {
		if !rows.Next() {
			return res, fmt.Errorf("subscribe: initial result ended after %d of %d rows: %v", i, initRows, rows.Err())
		}
		if op := rows.Row()[opIdx].Str(); op != "init" {
			rows.Close()
			return res, fmt.Errorf("subscribe: initial row %d tagged %q", i, op)
		}
	}

	type arrival struct {
		first   time.Time
		appends int
	}
	var mu sync.Mutex
	arrived := map[uint64]*arrival{}
	var lastRow time.Time
	changed := make(chan struct{}, 1) // wakes the writer; one pending wake-up is enough
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for rows.Next() {
			row := rows.Row()
			now := time.Now()
			wm := uint64(row[wmIdx].Int64())
			mu.Lock()
			a := arrived[wm]
			if a == nil {
				a = &arrival{first: now}
				arrived[wm] = a
			}
			if row[opIdx].Str() == "append" {
				a.appends++
			}
			lastRow = now
			mu.Unlock()
			select {
			case changed <- struct{}{}:
			default:
			}
		}
	}()

	// delivered waits until the batch at wm has all its appended rows and
	// the cursor has been quiet for deltaQuiet (its upserts follow the
	// appended rows), or until timeout.
	delivered := func(wm uint64, n int, timeout time.Duration) bool {
		deadline := time.Now().Add(timeout)
		for {
			mu.Lock()
			a := arrived[wm]
			quiet := time.Since(lastRow)
			mu.Unlock()
			if a != nil && a.appends >= n && quiet >= deltaQuiet {
				return true
			}
			if time.Now().After(deadline) {
				return false
			}
			select {
			case <-changed:
			case <-time.After(deltaQuiet):
			case <-readerDone:
				return false
			}
		}
	}

	sent := make(map[uint64]time.Time, len(batches))
	size := make(map[uint64]int, len(batches))
	start := time.Now()
	var order []uint64 // acknowledged watermarks in send order
	var lastWM uint64
	lastN := 0
	for i, b := range batches {
		// The writer paces itself: the next append leaves at its scheduled
		// time or once the previous one is visible, whichever is later, so
		// each lag measures one batch rather than a queue of them.
		if lastN > 0 && !delivered(lastWM, lastN, deltaTimeout) {
			break
		}
		if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
			time.Sleep(d)
		}
		t0 := time.Now()
		wm, err := t.appendRows(ctx, "web_sales", b)
		ack := time.Since(t0)
		if err != nil {
			res.failed++
			res.errs = append(res.errs, fmt.Errorf("append %d: %w", i, err))
			lastN = 0
			continue
		}
		res.ackMs = append(res.ackMs, ms(ack))
		sent[wm], size[wm] = t0, len(b)
		order = append(order, wm)
		lastWM, lastN = wm, len(b)
	}
	if lastN > 0 {
		delivered(lastWM, lastN, deltaTimeout)
	}
	res.wall = time.Since(start)
	cancel()
	<-readerDone
	mu.Lock()
	defer mu.Unlock()
	for wm := range arrived {
		if _, ok := sent[wm]; !ok {
			res.failed++
			res.errs = append(res.errs, fmt.Errorf("delta rows under watermark %d, which no append returned", wm))
		}
	}
	for _, wm := range order {
		a := arrived[wm]
		switch {
		case a == nil:
			res.failed++
			res.errs = append(res.errs, fmt.Errorf("append at watermark %d: no delta rows arrived", wm))
		case a.appends != size[wm]:
			res.failed++
			res.errs = append(res.errs, fmt.Errorf("append at watermark %d: %d rows tagged append, want %d", wm, a.appends, size[wm]))
		default:
			res.lagMs = append(res.lagMs, ms(a.first.Sub(sent[wm])))
		}
	}
	return res, nil
}
