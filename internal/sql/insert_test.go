package sql

import (
	"errors"
	"testing"

	"repro/internal/storage"
)

func TestIsInsert(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"INSERT INTO t VALUES (1)", true},
		{"  insert into t values (1)", true},
		{"InSeRt INTO t VALUES (1)", true},
		{"INSERTX INTO t VALUES (1)", false},
		{"SELECT 1", false},
		{"", false},
	}
	for _, c := range cases {
		if got := IsInsert(c.src); got != c.want {
			t.Errorf("IsInsert(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestParseInsert(t *testing.T) {
	ins, err := ParseInsert(`INSERT INTO ws VALUES (1, 'a', 2.5, NULL), (-3, 'it''s', 0.0, TRUE)`)
	if err != nil {
		t.Fatal(err)
	}
	if ins.Table != "ws" {
		t.Errorf("table = %q", ins.Table)
	}
	if len(ins.Rows) != 2 {
		t.Fatalf("rows = %d", len(ins.Rows))
	}
	want0 := storage.Tuple{storage.Int(1), storage.StringVal("a"), storage.Float(2.5), storage.Null}
	for i, v := range want0 {
		if !storage.Identical(ins.Rows[0][i], v) {
			t.Errorf("row 0 col %d = %s, want %s", i, ins.Rows[0][i], v)
		}
	}
	if !storage.Identical(ins.Rows[1][0], storage.Int(-3)) {
		t.Errorf("negative literal = %s", ins.Rows[1][0])
	}
	if !storage.Identical(ins.Rows[1][1], storage.StringVal("it's")) {
		t.Errorf("escaped string = %s", ins.Rows[1][1])
	}
}

func TestParseInsertErrors(t *testing.T) {
	for _, src := range []string{
		"INSERT t VALUES (1)",
		"INSERT INTO t (1)",
		"INSERT INTO t VALUES ()",
		"INSERT INTO t VALUES (1),",
		"INSERT INTO t VALUES (1) garbage",
		"INSERT INTO t VALUES (1 2)",
	} {
		_, err := ParseInsert(src)
		if err == nil {
			t.Errorf("%q: parsed without error", src)
			continue
		}
		if !errors.Is(err, ErrParse) {
			t.Errorf("%q: error class = %v, want ErrParse", src, err)
		}
	}
}
