package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/service"
	"repro/internal/trace"
)

// ClusterStats is the coordinator's /stats payload: cluster-level routing
// counters plus every shard's service snapshot and their headline
// aggregates.
type ClusterStats struct {
	Shards   int    `json:"shards"`
	Queries  uint64 `json:"queries"`
	Failures uint64 `json:"failures"`
	// Aborted counts streamed queries closed before their last row
	// (client disconnects, deliberate truncation) — neither successes
	// nor failures.
	Aborted uint64 `json:"aborted"`
	Scatter uint64 `json:"scatter"`
	// Shuffle counts key-divergent chains executed per segment with
	// node-to-node re-shuffles instead of a coordinator gather.
	Shuffle uint64 `json:"shuffle"`
	Gather  uint64 `json:"gather"`
	Replica uint64 `json:"replica"`
	// Appends counts cluster-level append batches (INSERT statements and
	// /append bodies routed to the owning nodes); RowsAppended their rows.
	Appends      uint64 `json:"appends"`
	RowsAppended uint64 `json:"rows_appended"`
	// LiveQueries is the coordinator's in-flight query registry size —
	// statements currently inside QueryContext (GET /debug/queries lists
	// them).
	LiveQueries int `json:"live_queries"`

	// Aggregates across the shard snapshots below.
	ShardQueries uint64 `json:"shard_queries"`
	// ShardShuffleRounds sums the shuffle stages the nodes executed for
	// this coordinator's per-segment distributed chains.
	ShardShuffleRounds uint64 `json:"shard_shuffle_rounds"`
	ShardRejected      uint64 `json:"shard_rejected"`
	BlocksRead         int64  `json:"blocks_read"`
	BlocksWritten      int64  `json:"blocks_written"`

	// CoordCache is the coordinator's per-table-invalidated plan cache.
	CoordCache service.CacheStats `json:"coord_cache"`

	ShardStats []service.Snapshot `json:"shard_stats"`
}

// Stats fans out to every shard and aggregates.
func (c *Cluster) Stats(ctx context.Context) (*ClusterStats, error) {
	snaps := make([]service.Snapshot, len(c.shards))
	if err := c.eachShard(ctx, func(ctx context.Context, i int, tr Transport) error {
		s, err := tr.Stats(ctx)
		snaps[i] = s
		return err
	}); err != nil {
		return nil, err
	}
	stats := &ClusterStats{
		Shards:       len(c.shards),
		Queries:      c.queries.Load(),
		Failures:     c.failures.Load(),
		Aborted:      c.aborted.Load(),
		Scatter:      c.scatter.Load(),
		Shuffle:      c.shuffled.Load(),
		Gather:       c.gathered.Load(),
		Replica:      c.replica.Load(),
		Appends:      c.appends.Load(),
		RowsAppended: c.rowsAppended.Load(),
		LiveQueries:  c.reg.Len(),
		CoordCache:   c.cache.stats(),
		ShardStats:   snaps,
	}
	for _, s := range snaps {
		stats.ShardQueries += s.Queries
		stats.ShardShuffleRounds += s.ShuffleRounds
		stats.ShardRejected += s.Rejected
		stats.BlocksRead += s.BlocksRead
		stats.BlocksWritten += s.BlocksWritten
	}
	return stats, nil
}

// Handler returns the coordinator's HTTP/JSON front end, shaped like the
// single-engine service's (clients don't care which one they talk to):
//
//	POST /query   {"sql": "...", "max_rows": 100, "timeout_ms": 5000}
//	GET  /query?q=SELECT+...
//	GET  /stats   ClusterStats (per-shard snapshots + routing counters)
//	GET  /healthz fans out to every shard; 503 names the first down node
//
// /query responses add "route" (scatter|gather|replica) and "shards_used".
// A request carrying "stream":true, ?stream=1 or `Accept:
// application/x-ndjson` gets the chunked NDJSON stream: on the scatter
// route the coordinator forwards per-node streams in shard-index order
// without materializing the result, so the response memory at the
// coordinator is bounded by the wire batch, not |R|. Errors reuse the
// service status taxonomy; shard-node errors unwrap through RemoteError
// to the same sentinels, so an overloaded shard is a 429 here too.
func (c *Cluster) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", c.handleQuery)
	mux.HandleFunc("/append", c.handleAppend)
	mux.HandleFunc("/stats", c.handleStats)
	mux.HandleFunc("/healthz", c.handleHealthz)
	mux.HandleFunc("/metrics", c.handleMetrics)
	mux.HandleFunc("/debug/trace/", c.handleDebugTrace)
	mux.HandleFunc("/debug/queries", c.handleDebugQueries)
	mux.HandleFunc("/debug/queries/", c.handleDebugQueries)
	return mux
}

type queryRequest struct {
	SQL           string `json:"sql"`
	MaxRows       int    `json:"max_rows"`
	TimeoutMillis int64  `json:"timeout_ms"`
	Stream        bool   `json:"stream,omitempty"`
	// Subscribe turns the statement into a SUBSCRIBE (prefixing the verb
	// when absent): the response becomes a live delta stream maintained by
	// the owning shard nodes. ?subscribe=1 is the query-string spelling.
	Subscribe bool `json:"subscribe,omitempty"`
}

type queryResponse struct {
	Columns   []string `json:"columns"`
	Rows      [][]any  `json:"rows"`
	RowCount  int      `json:"row_count"`
	Truncated bool     `json:"truncated,omitempty"`

	Route      string `json:"route"`
	ShardsUsed int    `json:"shards_used"`

	ElapsedMillis float64 `json:"elapsed_ms"`
	CacheHit      bool    `json:"cache_hit"`

	Chain         string `json:"chain,omitempty"`
	FinalSort     string `json:"final_sort,omitempty"`
	BlocksRead    int64  `json:"blocks_read"`
	BlocksWritten int64  `json:"blocks_written"`
	TraceID       string `json:"trace_id,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

func writeError(w http.ResponseWriter, err error) {
	status, kind := service.StatusFor(err)
	writeJSON(w, status, errorResponse{Error: err.Error(), Kind: kind})
}

func (c *Cluster) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	switch r.Method {
	case http.MethodGet:
		req.SQL = r.URL.Query().Get("q")
	case http.MethodPost:
		if status, err := service.DecodeStatementBody(w, r, &req); err != nil {
			writeJSON(w, status, errorResponse{Error: "shard: " + err.Error(), Kind: "request"})
			return
		}
	default:
		w.Header().Set("Allow", "GET, POST")
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "shard: use GET ?q= or POST JSON", Kind: "request"})
		return
	}
	if req.SQL == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "shard: empty query: pass ?q= or a JSON body with \"sql\"", Kind: "request"})
		return
	}
	if v := r.URL.Query().Get("subscribe"); v == "1" || v == "true" {
		req.Subscribe = true
	}
	if req.Subscribe {
		if _, ok := windowdb.StripSubscribe(req.SQL); !ok {
			req.SQL = "SUBSCRIBE " + req.SQL
		}
	}
	// A SUBSCRIBE statement is necessarily a stream: it has no final row to
	// buffer a response around.
	_, isLive := windowdb.StripSubscribe(req.SQL)
	if isLive {
		req.Stream = true
	}
	ctx := r.Context()
	if req.TimeoutMillis > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMillis)*time.Millisecond)
		defer cancel()
	}

	// Join or start the distributed trace at the cluster's front door; the
	// response header hands the caller the /debug/trace/{id} key.
	traceID := r.Header.Get(trace.HeaderTraceID)
	if traceID == "" {
		traceID = trace.NewID()
	}
	ctx = trace.NewContext(ctx, traceID)
	ctx = trace.WithClient(ctx, r.RemoteAddr)
	w.Header().Set(trace.HeaderTraceID, traceID)

	if req.Stream || service.NDJSONRequested(r) {
		// The streamed shape: on the scatter route the response body is the
		// merge-concatenation of the per-node streams — rows transit the
		// coordinator without ever forming a whole-result buffer.
		rows, err := c.QueryContext(ctx, req.SQL)
		if err != nil {
			writeError(w, err)
			return
		}
		// Attach the registered query's live counters to the writer's
		// context so wire bytes account to the registry entry.
		wctx := r.Context()
		if e := c.reg.Get(traceID); e != nil {
			wctx = trace.WithLive(wctx, e.Live())
		}
		if isLive {
			// Per-row flushing: delta rows must reach the client as they
			// land, not park behind the fill buffer while the stream idles.
			service.WriteLiveStream(wctx, w, rows, req.MaxRows, service.NegotiateCodec(r))
		} else {
			service.WriteStream(wctx, w, rows, req.MaxRows, service.NegotiateCodec(r))
		}
		return
	}

	res, err := c.Query(ctx, req.SQL)
	if err != nil {
		writeError(w, err)
		return
	}
	t := res.Table
	resp := queryResponse{
		Columns:       make([]string, t.Schema.Len()),
		RowCount:      t.Len(),
		Route:         res.Route,
		ShardsUsed:    res.ShardsUsed,
		ElapsedMillis: float64(res.Elapsed) / float64(time.Millisecond),
		CacheHit:      res.CacheHit,
		FinalSort:     res.FinalSort,
		BlocksRead:    res.BlocksRead,
		BlocksWritten: res.BlocksWritten,
		TraceID:       res.TraceID,
	}
	for i, col := range t.Schema.Columns {
		resp.Columns[i] = col.Name
	}
	if res.Plan != nil {
		resp.Chain = res.Plan.PaperString()
	}
	rows := t.Rows
	if req.MaxRows > 0 && len(rows) > req.MaxRows {
		rows = rows[:req.MaxRows]
		resp.Truncated = true
	}
	resp.Rows = make([][]any, len(rows))
	for i, row := range rows {
		out := make([]any, len(row))
		for j, v := range row {
			out[j] = service.JSONValue(v)
		}
		resp.Rows[i] = out
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleAppend is the coordinator's POST /append route: the same two body
// shapes as the single-engine service (JSON rows, or binary columnar
// frames with ?table=), routed through Cluster.Append so each row lands on
// its owning node under one coordinator-assigned watermark.
func (c *Cluster) handleAppend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "shard: use POST", Kind: "request"})
		return
	}
	req, rows, err := service.DecodeAppendBody(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error(), Kind: "request"})
		return
	}
	resp, err := c.Append(r.Context(), req.Table, rows)
	if err != nil {
		status, kind := service.AppendStatus(err)
		writeJSON(w, status, errorResponse{Error: err.Error(), Kind: kind})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (c *Cluster) handleStats(w http.ResponseWriter, r *http.Request) {
	stats, err := c.Stats(r.Context())
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, stats)
}

func (c *Cluster) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := service.Health{
		Status:  "ok",
		Version: service.BuildVersion(),
		Codecs:  []string{string(service.CodecBinary), string(service.CodecJSON)},
		Role:    "coordinator",
	}
	if err := c.Health(r.Context()); err != nil {
		h.Status = "degraded: " + err.Error()
		writeJSON(w, http.StatusServiceUnavailable, h)
		return
	}
	writeJSON(w, http.StatusOK, h)
}

// handleMetrics serves the coordinator's Prometheus exposition: its own
// routing and cache counters plus per-shard labelled families built from
// the shard snapshots, so one scrape shows cluster skew.
func (c *Cluster) handleMetrics(w http.ResponseWriter, r *http.Request) {
	stats, err := c.Stats(r.Context())
	if err != nil {
		writeError(w, err)
		return
	}
	p := &service.PromWriter{}
	p.Counter("windowdb_queries_total", "Queries completed successfully at the coordinator.", float64(stats.Queries))
	p.Counter("windowdb_query_failures_total", "Queries completed with an error.", float64(stats.Failures))
	p.Counter("windowdb_streams_aborted_total", "Streamed queries closed before their last row.", float64(stats.Aborted))
	p.Counter("windowdb_queries_aborted_total", "Queries aborted before completion (kills and client disconnects).", float64(stats.Aborted))
	p.Counter("windowdb_appends_total", "Append batches routed to the owning shard nodes.", float64(stats.Appends))
	p.Counter("windowdb_rows_appended_total", "Rows ingested by cluster append batches.", float64(stats.RowsAppended))
	p.Gauge("windowdb_live_queries", "In-flight queries in the coordinator registry.", float64(stats.LiveQueries))
	p.Gauge("windowdb_shuffle_round_imbalance", "Most recent shuffle round's max/mean per-node output-row ratio (1 = balanced, 0 = none observed).", c.ShuffleImbalance())

	p.Family("windowdb_route_queries_total", "Queries by coordinator route.", "counter")
	p.Sample("windowdb_route_queries_total", `route="scatter"`, float64(stats.Scatter))
	p.Sample("windowdb_route_queries_total", `route="shuffle"`, float64(stats.Shuffle))
	p.Sample("windowdb_route_queries_total", `route="gather"`, float64(stats.Gather))
	p.Sample("windowdb_route_queries_total", `route="replica"`, float64(stats.Replica))

	p.Counter("windowdb_plan_cache_hits_total", "Coordinator plan cache hits.", float64(stats.CoordCache.Hits))
	p.Counter("windowdb_plan_cache_misses_total", "Coordinator plan cache misses.", float64(stats.CoordCache.Misses))
	p.Counter("windowdb_plan_cache_invalidations_total", "Coordinator plan cache invalidations.", float64(stats.CoordCache.Invalidations))
	p.Counter("windowdb_plan_cache_evictions_total", "Coordinator plan cache evictions.", float64(stats.CoordCache.Evictions))
	p.Gauge("windowdb_plan_cache_entries", "Coordinator plan cache resident entries.", float64(stats.CoordCache.Size))

	p.Gauge("windowdb_shards", "Shard nodes in the cluster.", float64(stats.Shards))
	p.Gauge("windowdb_gather_in_flight", "Gather-route chains holding a coordinator slot.", float64(c.GatherInFlight()))

	shardFamily := func(name, help, typ string, get func(service.Snapshot) float64) {
		p.Family(name, help, typ)
		for i, s := range stats.ShardStats {
			p.Sample(name, fmt.Sprintf("shard=%q", strconv.Itoa(i)), get(s))
		}
	}
	shardFamily("windowdb_shard_queries_total", "Queries completed per shard node.", "counter",
		func(s service.Snapshot) float64 { return float64(s.Queries) })
	shardFamily("windowdb_shard_failures_total", "Failed queries per shard node.", "counter",
		func(s service.Snapshot) float64 { return float64(s.Failures) })
	shardFamily("windowdb_shard_rejected_total", "Admission rejections per shard node.", "counter",
		func(s service.Snapshot) float64 { return float64(s.Rejected) })
	shardFamily("windowdb_shard_shuffle_rounds_total", "Shuffle stages executed per shard node.", "counter",
		func(s service.Snapshot) float64 { return float64(s.ShuffleRounds) })
	shardFamily("windowdb_shard_blocks_read_total", "Storage blocks read per shard node.", "counter",
		func(s service.Snapshot) float64 { return float64(s.BlocksRead) })
	shardFamily("windowdb_shard_blocks_written_total", "Storage blocks spilled per shard node.", "counter",
		func(s service.Snapshot) float64 { return float64(s.BlocksWritten) })
	shardFamily("windowdb_shard_rows_out_total", "Rows yielded per shard node.", "counter",
		func(s service.Snapshot) float64 { return float64(s.RowsOut) })
	shardFamily("windowdb_shard_in_flight", "In-flight executions per shard node.", "gauge",
		func(s service.Snapshot) float64 { return float64(s.InFlight) })
	service.WriteBuildInfo(p, service.CodecBinary)
	p.ServeTo(w)
}

func (c *Cluster) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	service.ServeTraceRing(w, r, c.Traces(), "/debug/trace/")
}

// mergedLiveQueries snapshots the coordinator registry and grafts every
// shard node's in-flight entries under the owning query: node-side stages
// register under the coordinator's trace ID, so matching is by ID. The
// fan-out is best-effort — an unreachable node hides only its own
// subtree, never the coordinator's view. Node entries owned by no listed
// coordinator query (statements sent to a node directly) append at the
// end, so cluster-wide visibility is complete.
func (c *Cluster) mergedLiveQueries(ctx context.Context) []trace.QueryInfo {
	own := c.reg.Snapshot()
	nodeInfos := make([][]trace.QueryInfo, len(c.shards))
	var wg sync.WaitGroup
	for i, tr := range c.shards {
		wg.Add(1)
		go func(i int, tr Transport) {
			defer wg.Done()
			infos, err := tr.LiveQueries(ctx)
			if err != nil {
				return
			}
			nodeInfos[i] = infos
		}(i, tr)
	}
	wg.Wait()
	byID := make(map[string]int, len(own))
	for i := range own {
		byID[own[i].ID] = i
	}
	var orphans []trace.QueryInfo
	for i, infos := range nodeInfos {
		for _, info := range infos {
			info.Backend = fmt.Sprintf("shardnode %d", i)
			if j, ok := byID[info.ID]; ok {
				own[j].Nodes = append(own[j].Nodes, info)
			} else {
				orphans = append(orphans, info)
			}
		}
	}
	return append(own, orphans...)
}

// handleDebugQueries serves the coordinator's live query registry:
//
//	GET    /debug/queries      every in-flight query, newest first, each
//	                           with its shard nodes' matching entries
//	                           merged under "nodes"
//	GET    /debug/queries/{id} one query
//	DELETE /debug/queries/{id} kill: fires the stored cancel here and on
//	                           every node holding a stage of the query
func (c *Cluster) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/debug/queries")
	id = strings.Trim(id, "/")
	switch {
	case r.Method == http.MethodGet && id == "":
		writeJSON(w, http.StatusOK, c.mergedLiveQueries(r.Context()))
	case r.Method == http.MethodGet:
		for _, info := range c.mergedLiveQueries(r.Context()) {
			if info.ID == id {
				writeJSON(w, http.StatusOK, info)
				return
			}
		}
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "shard: no in-flight query " + id, Kind: "request"})
	case r.Method == http.MethodDelete && id != "":
		killed := c.reg.Kill(id)
		// Fan the kill out regardless: a node could hold a stage of a
		// query whose coordinator entry already finished (or that was
		// submitted to the node directly).
		var nodeKilled atomic.Bool
		var wg sync.WaitGroup
		for _, tr := range c.shards {
			wg.Add(1)
			go func(tr Transport) {
				defer wg.Done()
				if ok, err := tr.KillQuery(r.Context(), id); err == nil && ok {
					nodeKilled.Store(true)
				}
			}(tr)
		}
		wg.Wait()
		if !killed && !nodeKilled.Load() {
			writeJSON(w, http.StatusNotFound, errorResponse{Error: "shard: no in-flight query " + id, Kind: "request"})
			return
		}
		writeJSON(w, http.StatusOK, service.KillResponse{ID: id, Killed: true})
	default:
		w.Header().Set("Allow", "GET, DELETE")
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "shard: GET lists in-flight queries, DELETE /debug/queries/{id} kills one", Kind: "request"})
	}
}
