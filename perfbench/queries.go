package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/bench"
	"repro/internal/storage"
)

// wfDef is one rank() call of a benchmark statement. The statements are
// described structurally so that the oracle never goes through the
// program's SQL parser; render turns them into SQL, and the renders are
// checked against the repository's own Q1–Q9 (see checkMixes).
type wfDef struct {
	pk    []string
	ok    []string
	alias string
}

type queryDef struct {
	name  string
	table string
	proj  []string
	wfs   []wfDef
	sql   string
}

func rank(alias string, pk, ok []string) wfDef {
	return wfDef{pk: pk, ok: ok, alias: alias}
}

func cols(names ...string) []string { return names }

func newQuery(name, table string, proj []string, wfs ...wfDef) queryDef {
	q := queryDef{name: name, table: table, proj: proj, wfs: wfs}
	q.sql = q.render()
	return q
}

func (q queryDef) render() string {
	var items []string
	items = append(items, q.proj...)
	for _, w := range q.wfs {
		var over []string
		if len(w.pk) > 0 {
			over = append(over, "PARTITION BY "+strings.Join(w.pk, ", "))
		}
		if len(w.ok) > 0 {
			over = append(over, "ORDER BY "+strings.Join(w.ok, ", "))
		}
		items = append(items, fmt.Sprintf("rank() OVER (%s) AS %s", strings.Join(over, " "), w.alias))
	}
	return "SELECT " + strings.Join(items, ", ") + " FROM " + q.table
}

const (
	cDate = "ws_sold_date_sk"
	cTime = "ws_sold_time_sk"
	cShip = "ws_ship_date_sk"
	cItem = "ws_item_sk"
	cBill = "ws_bill_customer_sk"
	cWh   = "ws_warehouse_sk"
	cQty  = "ws_quantity"
)

// paperMix is the paper's Q1–Q9 (Section 6), identical to bench.ServiceMix.
func paperMix() []queryDef {
	return []queryDef{
		newQuery("Q1", "web_sales", cols(cItem), rank("r", cols(cItem), cols(cTime))),
		newQuery("Q2", "web_sales", cols(cItem), rank("r", cols(cItem, cBill), cols(cTime))),
		newQuery("Q3", "web_sales", cols(cWh), rank("r", cols(cWh), cols(cTime))),
		newQuery("Q4", "web_sales_s", cols(cQty), rank("r", cols(cQty), cols(cItem))),
		newQuery("Q5", "web_sales_g", cols(cQty), rank("r", cols(cQty), cols(cItem))),
		newQuery("Q6", "web_sales", nil,
			rank("r1", cols(cItem), cols(cDate)),
			rank("r2", cols(cItem), cols(cBill))),
		newQuery("Q7", "web_sales", nil,
			rank("r1", cols(cDate, cTime, cShip), nil),
			rank("r2", cols(cTime, cDate), nil),
			rank("r3", cols(cItem), nil),
			rank("r4", nil, cols(cItem, cBill)),
			rank("r5", cols(cDate, cTime, cItem, cBill), cols(cShip))),
		newQuery("Q8", "web_sales", nil,
			rank("r1", cols(cDate, cTime, cShip), nil),
			rank("r2", cols(cTime, cDate), nil),
			rank("r3", cols(cItem), nil),
			rank("r4", cols(cItem), cols(cBill)),
			rank("r5", cols(cDate, cTime, cItem), cols(cBill, cShip))),
		newQuery("Q9", "web_sales", nil,
			rank("r1", cols(cItem), cols(cBill, cDate)),
			rank("r2", cols(cItem, cTime), cols(cDate)),
			rank("r3", cols(cItem), cols(cTime)),
			rank("r4", nil, cols(cItem, cDate)),
			rank("r5", cols(cBill, cDate), cols(cTime)),
			rank("r6", cols(cBill), cols(cTime)),
			rank("r7", cols(cDate, cTime), nil),
			rank("r8", nil, cols(cTime))),
	}
}

// shuffleMix is the cluster workload's pair: Q6d diverges from the shard
// key (item, then warehouse), so the cluster re-shuffles between its two
// segments; Q6 partitions by the shard key and runs scattered.
func shuffleMix() []queryDef {
	return []queryDef{
		newQuery("Q6d", "web_sales", nil,
			rank("r1", cols(cItem), cols(cDate)),
			rank("r2", cols(cWh), cols(cDate))),
		paperMix()[5],
	}
}

// checkMixes fails if a rendered statement drifted from the repository's
// own Q1–Q9, so the benchmark keeps measuring the paper's statements.
func checkMixes() error {
	norm := func(s string) string { return strings.Join(strings.Fields(s), " ") }
	ours, theirs := paperMix(), bench.ServiceMix()
	if len(ours) != len(theirs) {
		return fmt.Errorf("query mix has %d statements, repository mix %d", len(ours), len(theirs))
	}
	for i, q := range ours {
		if norm(q.sql) != norm(theirs[i]) {
			return fmt.Errorf("%s renders as %q, repository mix has %q", q.name, q.sql, norm(theirs[i]))
		}
	}
	return nil
}

// expected is what a correct result of one statement looks like.
type expected struct {
	rows   int
	cols   []storage.Column
	digest uint64
}

// oracle computes a statement's expected result over rows with an
// independent sort-then-rank pass: it shares no code with the engine's
// reorder, window or executor layers, and compares values itself.
func oracle(schema *storage.Schema, rows []storage.Tuple, q queryDef) (expected, error) {
	idx := func(name string) (int, error) {
		for i, c := range schema.Columns {
			if c.Name == name {
				return i, nil
			}
		}
		return 0, fmt.Errorf("%s: no column %q", q.name, name)
	}
	idxs := func(names []string) ([]int, error) {
		out := make([]int, len(names))
		for i, n := range names {
			j, err := idx(n)
			if err != nil {
				return nil, err
			}
			out[i] = j
		}
		return out, nil
	}
	exp := expected{rows: len(rows)}
	projIdx, err := idxs(q.proj)
	if err != nil {
		return exp, err
	}
	for _, j := range projIdx {
		exp.cols = append(exp.cols, schema.Columns[j])
	}
	derived := make([][]storage.Value, len(q.wfs))
	for w, wf := range q.wfs {
		pk, err := idxs(wf.pk)
		if err != nil {
			return exp, err
		}
		ok, err := idxs(wf.ok)
		if err != nil {
			return exp, err
		}
		derived[w] = oracleRank(rows, pk, ok)
		exp.cols = append(exp.cols, storage.Column{Name: wf.alias, Type: storage.TypeInt})
	}
	out := make(storage.Tuple, len(exp.cols))
	for i, row := range rows {
		for k, j := range projIdx {
			out[k] = row[j]
		}
		for w := range q.wfs {
			out[len(projIdx)+w] = derived[w][i]
		}
		exp.digest += rowHash(out)
	}
	return exp, nil
}

// cmpValue is the oracle's own total order: NULL first, then numbers, then
// strings. The generated tables hold no NULLs and key columns are ints.
func cmpValue(a, b storage.Value) int {
	ka, kb := kindRank(a), kindRank(b)
	if ka != kb {
		return ka - kb
	}
	switch ka {
	case 1:
		if a.Kind() == storage.KindInt && b.Kind() == storage.KindInt {
			x, y := a.Int64(), b.Int64()
			switch {
			case x < y:
				return -1
			case x > y:
				return 1
			}
			return 0
		}
		x, y := num(a), num(b)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case 2:
		return strings.Compare(a.Str(), b.Str())
	}
	return 0
}

func kindRank(v storage.Value) int {
	switch v.Kind() {
	case storage.KindNull:
		return 0
	case storage.KindInt, storage.KindFloat:
		return 1
	}
	return 2
}

func num(v storage.Value) float64 {
	if v.Kind() == storage.KindInt {
		return float64(v.Int64())
	}
	return v.Float64()
}

func cmpOn(a, b storage.Tuple, cols []int) int {
	for _, c := range cols {
		if r := cmpValue(a[c], b[c]); r != 0 {
			return r
		}
	}
	return 0
}

// oracleRank sorts row positions by (partition, order) and assigns SQL
// rank(): 1 + the number of partition rows strictly before the peer group.
func oracleRank(rows []storage.Tuple, pk, ok []int) []storage.Value {
	pos := make([]int, len(rows))
	for i := range pos {
		pos[i] = i
	}
	key := append(append([]int{}, pk...), ok...)
	sort.Slice(pos, func(i, j int) bool { return cmpOn(rows[pos[i]], rows[pos[j]], key) < 0 })
	out := make([]storage.Value, len(rows))
	var r, inPart int64
	for n, p := range pos {
		switch {
		case n == 0 || cmpOn(rows[pos[n-1]], rows[p], pk) != 0:
			r, inPart = 1, 1
		case cmpOn(rows[pos[n-1]], rows[p], ok) != 0:
			inPart++
			r = inPart
		default:
			inPart++
		}
		out[p] = storage.Int(r)
	}
	return out
}

// rowHash hashes one output row (FNV-1a over a canonical encoding, then a
// splitmix64 finalizer). Results are digested as the sum of their row
// hashes, which does not depend on row order. Integral floats hash like
// ints, so a value returned as 42.0 matches the oracle's 42.
func rowHash(t storage.Tuple) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(b byte) { h = (h ^ uint64(b)) * prime }
	word := func(x uint64) {
		for i := 0; i < 8; i++ {
			mix(byte(x >> (8 * i)))
		}
	}
	for _, v := range t {
		switch v.Kind() {
		case storage.KindNull:
			mix('n')
		case storage.KindInt:
			mix('i')
			word(uint64(v.Int64()))
		case storage.KindFloat:
			f := v.Float64()
			if f == math.Trunc(f) && math.Abs(f) < 1<<53 {
				mix('i')
				word(uint64(int64(f)))
			} else {
				mix('f')
				word(math.Float64bits(f))
			}
		default:
			mix('s')
			for _, c := range []byte(v.Str()) {
				mix(c)
			}
			mix(0)
		}
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
