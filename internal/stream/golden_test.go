package stream

import (
	"bytes"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"repro/internal/storage"
)

// TestBatchGolden pins the WCF1 bytes of one batch frame over the edge
// values of every kind: typed int, float and string columns with NULLs, an
// all-NULL column and a mixed column. The bytes were recorded from the
// original 40-byte Value layout; the node wire must not drift with the
// in-memory representation.
func TestBatchGolden(t *testing.T) {
	long := strings.Repeat("x", 130)
	rows := []storage.Tuple{
		{storage.Int(math.MinInt64), storage.Float(math.Copysign(0, -1)), storage.StringVal(""), storage.Null, storage.Int(1)},
		{storage.Int(math.MaxInt64), storage.Float(math.NaN()), storage.StringVal(long), storage.Null, storage.StringVal("")},
		{storage.Null, storage.Float(math.Inf(1)), storage.Null, storage.Null, storage.Float(math.Inf(-1))},
		{storage.Int(0), storage.Float(math.Inf(-1)), storage.StringVal("z"), storage.Null, storage.Null},
	}
	var buf bytes.Buffer
	if err := NewFrameWriter(&buf).WriteTuples(rows, 5); err != nil {
		t.Fatal(err)
	}
	want := "57434631" + "42" + "da000000" + // magic, 'B', payload length 218
		"04" + // rows
		"010104" + "0000000000000080" + "ffffffffffffff7f" + "0000000000000000" + // int, NULL bitmap 0b0100
		"0200" + "0000000000000080" + "010000000000f87f" + "000000000000f07f" + "000000000000f0ff" + // float, no NULLs
		"030104" + "00" + "8201" + strings.Repeat("78", 130) + "017a" + // string, NULL bitmap 0b0100
		"0000" + // all-NULL
		"0400" + "0102" + "0300" + "02000000000000f0ff" + "00" // mixed: 1, "", -Inf, NULL
	if got := hex.EncodeToString(buf.Bytes()); got != want {
		t.Fatalf("WCF1 batch bytes drifted:\n got %s\nwant %s", got, want)
	}
}
