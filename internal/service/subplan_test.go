package service

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/datagen"
	"repro/internal/storage"
)

// shareQ* is a correlated dashboard mix: one table, one partition key,
// three ordering grains. The finest statement's scan serves the coarser
// two through the frame lattice.
const (
	shareQFine   = `SELECT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk, ws_sold_time_sk, ws_order_number) AS r FROM web_sales`
	shareQMid    = `SELECT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk, ws_sold_time_sk) AS r FROM web_sales`
	shareQCoarse = `SELECT ws_item_sk, sum(ws_quantity) OVER (PARTITION BY ws_item_sk) AS s FROM web_sales`
)

// newSpillService builds a service whose unit reorder memory is far below
// the table size, so every scan's full sort spills and block I/O becomes
// observable in the metrics.
func newSpillService(t testing.TB, cfg Config, rows int) *Service {
	t.Helper()
	eng := windowdb.New(windowdb.Config{SortMemBytes: 1 << 15, Parallelism: 1})
	eng.Register("web_sales", datagen.WebSales(datagen.WebSalesConfig{Rows: rows, Seed: 1}))
	return New(eng, cfg)
}

// TestSubplanSingleflight: concurrent identical queries share one scan —
// exactly one miss leads it, every other execution hits the completed
// segment or attaches to the in-flight one, results stay correct, and the
// fleet's total block I/O collapses to roughly one scan's worth.
func TestSubplanSingleflight(t *testing.T) {
	const rows, clients = 6000, 8
	svc := newSpillService(t, Config{Slots: 4}, rows)
	off := newSpillService(t, Config{Slots: 4, DisableSharing: true}, rows)
	ctx := context.Background()

	want, err := off.Query(ctx, shareQFine)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	results := make([]*QueryResult, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = svc.Query(ctx, shareQFine)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	for i, res := range results {
		if res.Table.Len() != want.Table.Len() {
			t.Fatalf("client %d: %d rows, want %d", i, res.Table.Len(), want.Table.Len())
		}
		for j := range want.Table.Rows {
			if string(storage.AppendTuple(nil, res.Table.Rows[j])) != string(storage.AppendTuple(nil, want.Table.Rows[j])) {
				t.Fatalf("client %d: row %d differs from private execution", i, j)
			}
		}
		if res.SharedScan == "" {
			t.Fatalf("client %d: no shared-scan disposition", i)
		}
	}

	st := svc.Stats().Subplans
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want exactly 1 (one scan for %d clients)", st.Misses, clients)
	}
	if st.Hits+st.Attaches != clients-1 {
		t.Fatalf("hits=%d attaches=%d, want %d reuses", st.Hits, st.Attaches, clients-1)
	}

	// The A/B I/O check: the same 8 queries without sharing read at least
	// 2x the blocks (the acceptance bar; in practice it is ~8x).
	for i := 0; i < clients-1; i++ { // off already served one
		if _, err := off.Query(ctx, shareQFine); err != nil {
			t.Fatal(err)
		}
	}
	onBlocks, offBlocks := svc.Stats().BlocksRead, off.Stats().BlocksRead
	if offBlocks == 0 {
		t.Fatal("no spill: the scan must exceed reorder memory for this test to observe I/O")
	}
	if onBlocks*2 > offBlocks {
		t.Fatalf("sharing read %d blocks vs %d unshared — want at least a 2x reduction", onBlocks, offBlocks)
	}
}

// TestSubplanLattice: a coarser-grain statement reuses the finer
// statement's cached segment — a cross-statement hit, no second scan.
func TestSubplanLattice(t *testing.T) {
	svc := newTestService(t, Config{Slots: 2}, 3000)
	off := newTestService(t, Config{Slots: 2, DisableSharing: true}, 3000)
	ctx := context.Background()

	fine, err := svc.Query(ctx, shareQFine)
	if err != nil {
		t.Fatal(err)
	}
	if fine.SharedScan != dispMiss {
		t.Fatalf("first query disposition %q, want miss", fine.SharedScan)
	}
	if fine.EstRows != 3000 {
		t.Fatalf("est_rows %d, want the table's 3000", fine.EstRows)
	}
	for _, q := range []string{shareQMid, shareQCoarse} {
		got, err := svc.Query(ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if got.SharedScan != dispHit {
			t.Fatalf("%s: disposition %q, want lattice hit", q, got.SharedScan)
		}
		want, err := off.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		assertSameMultiset(t, q, want.Table, got.Table)
	}
	st := svc.Stats().Subplans
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("misses=%d hits=%d, want 1 scan serving 3 statements", st.Misses, st.Hits)
	}
}

// TestSubplanAppendInvalidation: an append retires the shared segment —
// the next query re-scans and sees the new rows, never a stale segment.
func TestSubplanAppendInvalidation(t *testing.T) {
	const rows = 2000
	svc := newTestService(t, Config{Slots: 2}, rows)
	ctx := context.Background()

	first, err := svc.Query(ctx, shareQFine)
	if err != nil {
		t.Fatal(err)
	}
	if first.Table.Len() != rows {
		t.Fatalf("first query: %d rows, want %d", first.Table.Len(), rows)
	}

	base, err := svc.Engine().Table("web_sales")
	if err != nil {
		t.Fatal(err)
	}
	fresh := make([]storage.Tuple, 10)
	for i := range fresh {
		fresh[i] = append(storage.Tuple(nil), base.Rows[i]...)
	}
	if _, _, err := svc.Append(ctx, "web_sales", fresh, 0); err != nil {
		t.Fatal(err)
	}

	second, err := svc.Query(ctx, shareQFine)
	if err != nil {
		t.Fatal(err)
	}
	if second.Table.Len() != rows+len(fresh) {
		t.Fatalf("post-append query: %d rows, want %d — a stale shared segment was served",
			second.Table.Len(), rows+len(fresh))
	}
	if second.SharedScan != dispMiss {
		t.Fatalf("post-append disposition %q, want miss (new data generation)", second.SharedScan)
	}
	st := svc.Stats().Subplans
	if st.Invalidations == 0 {
		t.Fatal("append did not invalidate the old segment")
	}
}

// TestExplainAnalyzeSharedScan: the trace surfaces the disposition, so
// EXPLAIN ANALYZE on a warm statement shows shared_scan=hit.
func TestExplainAnalyzeSharedScan(t *testing.T) {
	svc := newTestService(t, Config{Slots: 2}, 1500)
	ctx := context.Background()
	if _, err := svc.Query(ctx, shareQFine); err != nil {
		t.Fatal(err)
	}
	rows, err := svc.QueryContext(ctx, "EXPLAIN ANALYZE "+shareQFine)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for rows.Next() {
		out = append(out, rows.Row()[0].String())
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	text := strings.Join(out, "\n")
	if !strings.Contains(text, "shared_scan=hit") {
		t.Fatalf("EXPLAIN ANALYZE does not show shared_scan=hit:\n%s", text)
	}
}

// assertSameMultiset compares two tables as row multisets.
func assertSameMultiset(t *testing.T, q string, want, got *storage.Table) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d", q, got.Len(), want.Len())
	}
	counts := make(map[string]int, want.Len())
	for _, row := range want.Rows {
		counts[string(storage.AppendTuple(nil, row))]++
	}
	for _, row := range got.Rows {
		counts[string(storage.AppendTuple(nil, row))]--
	}
	for k, c := range counts {
		if c != 0 {
			t.Fatalf("%s: multiset mismatch (%d for %q)", q, c, k)
		}
	}
}

// TestSubplanHammer drives the shared-subplan cache with mixed
// Register / Append / Query traffic from many goroutines — the -race
// exercise for the singleflight and the two-generation invalidation. No
// query may fail, and the service must stay serviceable afterwards.
func TestSubplanHammer(t *testing.T) {
	const rows = 1200
	svc := newTestService(t, Config{Slots: 4, SubplanEntries: 4}, rows)
	ctx := context.Background()
	mix := []string{shareQFine, shareQMid, shareQCoarse, mixQ1}

	base, err := svc.Engine().Table("web_sales")
	if err != nil {
		t.Fatal(err)
	}
	row := append(storage.Tuple(nil), base.Rows[0]...)

	var wg sync.WaitGroup
	errCh := make(chan error, 256)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := svc.Query(ctx, mix[(g+i)%len(mix)]); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 15; i++ {
			batch := []storage.Tuple{append(storage.Tuple(nil), row...)}
			if _, _, err := svc.Append(ctx, "web_sales", batch, 0); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			svc.Engine().Register("web_sales", datagen.WebSales(datagen.WebSalesConfig{Rows: rows, Seed: int64(i + 2)}))
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Errorf("hammer: %v", err)
	}

	// The governor must not be wedged and the cache must still serve.
	res, err := svc.Query(ctx, shareQFine)
	if err != nil {
		t.Fatalf("post-hammer query: %v", err)
	}
	if res.Table.Len() == 0 {
		t.Fatal("post-hammer query returned no rows")
	}
	st := svc.Stats()
	if st.InFlight != 0 {
		t.Fatalf("in-flight gauge stuck at %d", st.InFlight)
	}
}
