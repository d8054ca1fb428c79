package shard

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro"
	"repro/internal/datagen"
	"repro/internal/service"
	"repro/internal/sql"
)

// newHTTPCluster boots n shard windserve handlers on httptest servers and
// forms a cluster over HTTP transports — the real multi-process topology,
// minus the sockets' processes.
func newHTTPCluster(t *testing.T, n int, rows int) *Cluster {
	t.Helper()
	shards := make([]Transport, n)
	for i := range shards {
		eng := windowdb.New(testEngineConfig())
		srv := httptest.NewServer(service.New(eng, service.Config{ShardRoutes: true}).Handler())
		t.Cleanup(srv.Close)
		shards[i] = NewHTTP(srv.URL, srv.Client())
	}
	c, err := New(Config{Engine: testEngineConfig()}, shards)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ws := datagen.WebSales(datagen.WebSalesConfig{Rows: rows, Seed: 7})
	if err := c.RegisterSharded(ctx, "web_sales", ws, "ws_item_sk"); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterReplicated(ctx, "emptab", datagen.Emptab()); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestHTTPTransportRoundTrip: registration, scatter, gather and replica
// all riding /shard/* over real HTTP, value-identical to the single
// engine (the wire codec must preserve value kinds exactly — the
// fingerprints are canonical tuple encodings).
func TestHTTPTransportRoundTrip(t *testing.T) {
	const rows = 800
	c := newHTTPCluster(t, 2, rows)
	ctx := context.Background()
	eng := singleEngine(rows)
	for _, tc := range []struct {
		sql, route string
	}{
		{q6SQL, "scatter"},
		{gatherSQL, "gather"},
		{divergeSQL, "shuffle"},
		{`SELECT empnum, salary FROM emptab`, "replica"},
	} {
		ref, err := eng.Query(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Query(ctx, tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.route, err)
		}
		if res.Route != tc.route {
			t.Fatalf("route %q, want %q", res.Route, tc.route)
		}
		if !slices.Equal(canonical(res.Table), canonical(ref.Table)) {
			t.Fatalf("%s over HTTP differs from single engine", tc.route)
		}
	}
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shards != 2 || stats.Queries != 4 || stats.Shuffle != 1 {
		t.Fatalf("stats: %+v", stats)
	}
	if stats.ShardShuffleRounds == 0 {
		t.Fatal("shuffle stages over HTTP not counted on the nodes")
	}
}

// TestHTTPErrorTaxonomy: remote errors unwrap to the same sentinels as
// local ones, so errors.Is sees through the transport.
func TestHTTPErrorTaxonomy(t *testing.T) {
	c := newHTTPCluster(t, 2, 100)
	_, err := c.Query(context.Background(), q6SQL+` GARBAGE TRAILING`)
	if !errors.Is(err, sql.ErrParse) {
		t.Fatalf("got %v, want ErrParse through RemoteError", err)
	}
	var re *RemoteError
	if errors.As(err, &re) {
		t.Fatalf("parse errors are coordinator-side, got remote %v", re)
	}
}

// TestCoordinatorHandler drives the coordinator's own HTTP front end over
// an HTTP-transport cluster: the full two-hop path a real deployment
// serves.
func TestCoordinatorHandler(t *testing.T) {
	const rows = 600
	c := newHTTPCluster(t, 2, rows)
	front := httptest.NewServer(c.Handler())
	defer front.Close()

	// Healthz fans out.
	resp, err := front.Client().Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}

	// A scatter query through POST /query.
	body := `{"sql": "` + strings.ReplaceAll(q6SQL, "\n", " ") + `", "max_rows": 5}`
	resp, err = front.Client().Post(front.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/query: %s", resp.Status)
	}
	var qr struct {
		RowCount   int    `json:"row_count"`
		Route      string `json:"route"`
		ShardsUsed int    `json:"shards_used"`
		Truncated  bool   `json:"truncated"`
		Rows       [][]any
	}
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr.RowCount != rows || qr.Route != "scatter" || qr.ShardsUsed != 2 || !qr.Truncated || len(qr.Rows) != 5 {
		t.Fatalf("coordinator /query response: %+v", qr)
	}

	// /stats aggregates the shards.
	resp, err = front.Client().Get(front.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st ClusterStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Shards != 2 || st.Scatter != 1 || len(st.ShardStats) != 2 {
		t.Fatalf("coordinator /stats: %+v", st)
	}

	// An unknown table through the front end is a 404 with the taxonomy
	// kind.
	resp, err = front.Client().Get(front.URL + "/query?q=SELECT+x+FROM+missing")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown table: %s", resp.Status)
	}

	// A statement body past the bound is a 413 that registers nothing.
	huge := `{"sql": "` + strings.Repeat("x", service.MaxStatementBytes) + `"}`
	resp, err = front.Client().Post(front.URL+"/query", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var er struct{ Kind string }
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || er.Kind != "request" {
		t.Fatalf("oversized body: %s kind %q, want 413 request", resp.Status, er.Kind)
	}
	if n, g := c.Registry().Len(), c.GatherInFlight(); n != 0 || g != 0 {
		t.Fatalf("oversized body left %d registry entries, %d gather slots", n, g)
	}
}

// TestMixedTopologyShuffleFallback: a cluster mixing in-process and HTTP
// transports cannot run the shuffle data plane (a remote node has no
// address for an in-process peer), so key-divergent chains keep the
// gather fallback — and still match the single engine.
func TestMixedTopologyShuffleFallback(t *testing.T) {
	const rows = 600
	engHTTP := windowdb.New(testEngineConfig())
	srv := httptest.NewServer(service.New(engHTTP, service.Config{ShardRoutes: true}).Handler())
	t.Cleanup(srv.Close)
	shards := []Transport{
		NewLocal(service.New(windowdb.New(testEngineConfig()), service.Config{})),
		NewHTTP(srv.URL, srv.Client()),
	}
	c, err := New(Config{Engine: testEngineConfig()}, shards)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ws := datagen.WebSales(datagen.WebSalesConfig{Rows: rows, Seed: 7})
	if err := c.RegisterSharded(ctx, "web_sales", ws, "ws_item_sk"); err != nil {
		t.Fatal(err)
	}
	ref, err := singleEngine(rows).Query(divergeSQL)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(ctx, divergeSQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.Route != "gather" {
		t.Fatalf("mixed topology routed %q, want gather fallback", res.Route)
	}
	if !slices.Equal(canonical(res.Table), canonical(ref.Table)) {
		t.Fatal("mixed-topology gather differs from single engine")
	}
}

// TestHealthFanoutFailure: a dead shard turns the coordinator unhealthy.
func TestHealthFanoutFailure(t *testing.T) {
	eng := windowdb.New(testEngineConfig())
	alive := httptest.NewServer(service.New(eng, service.Config{}).Handler())
	defer alive.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	c, err := New(Config{Engine: testEngineConfig()}, []Transport{
		NewHTTP(alive.URL, alive.Client()),
		NewHTTP(deadURL, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Health(context.Background()); err == nil {
		t.Fatal("health must fail with a dead shard")
	}
	front := httptest.NewServer(c.Handler())
	defer front.Close()
	resp, err := front.Client().Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("coordinator healthz with dead shard: %s", resp.Status)
	}
}
