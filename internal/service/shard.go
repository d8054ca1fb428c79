package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro"
	"repro/internal/attrs"
	"repro/internal/sql"
	"repro/internal/trace"
)

// Shard-side HTTP surface: the routes a windserve process exposes so a
// cluster coordinator (internal/shard) can use it as a shard node. The
// routes mount only under Config.ShardRoutes (windserve -shardnode).
//
//	POST /shard/query        {"sql": "...", "mode": "local"|"full"|"segment"} (row stream)
//	POST /shard/register     {"name": "t", "table": {wire table}}
//	GET  /shard/table?name=t (NDJSON row stream)
//	GET  /shard/distinct?table=t&attrs=3,4
//	POST /shard/shuffle/run  {ShuffleRunRequest}
//	POST /shard/shuffle      (NDJSON peer row stream — node-to-node)
//	POST /shard/shuffle/drop {"shuffle_id": "..."}
//
// /shard/query always answers with the row stream of stream.go. "local"
// mode executes the shard-local part of the statement (WHERE, chain,
// projection — no DISTINCT/ORDER BY/LIMIT; see StreamShardLocal); "full"
// executes the entire statement, used for replicated tables where one
// shard serves the whole query; "segment" executes the final segment of a
// coordinator SegmentPlan over the node's shuffle inbox (StreamSegment).
// The statement routes (/shard/query and the /shard/shuffle control
// routes) bound their bodies by MaxStatementBytes. /shard/register
// installs a table partition (or replica) into the node's engine — like
// every route here it is an intra-cluster interface: deploy shard nodes
// behind the cluster boundary, not on the public edge. /shard/table
// streams a table's raw rows with the NDJSON framing (the gather path of
// chains with no usable shuffle key) and /shard/distinct answers a
// distinct count for the coordinator's statistics stubs. The two
// /shard/shuffle data-plane routes carry the per-segment distributed
// execution of key-divergent chains: "run" executes one stage
// (RunShuffleStep), the bare route ingests a peer's re-shuffled rows into
// the node's inbox — node-to-node traffic that never transits the
// coordinator.

// ShardQueryRequest asks a shard node to execute a statement.
type ShardQueryRequest struct {
	SQL string `json:"sql"`
	// Mode is "local" (shard-local part only), "full" (entire statement)
	// or "segment" (final shuffle segment over the node's inbox).
	Mode string `json:"mode"`
	// Fingerprint is the coordinator's plan fingerprint of SQL
	// (sql.Fingerprint): nodes resolve their plan cache by it in O(1)
	// before falling back to text normalization. Optional — "" resolves
	// by text, so old coordinators keep working.
	Fingerprint string `json:"fp,omitempty"`

	// SubplanFP is the coordinator's subplan fingerprint
	// (sql.Prepared.SubplanFingerprint): the identity of the statement's
	// scan+reorder subplan, shipped so the node's shared-subplan cache
	// collides every request of one distributed statement on one scan.
	// Optional — "" lets the node derive the identity itself.
	SubplanFP string `json:"subplan_fp,omitempty"`

	// Mode "segment" only: the coordinator's segmentation decision and the
	// inbox generation holding the final segment's shuffled input.
	Plan      *sql.SegmentPlan `json:"plan,omitempty"`
	ShuffleID string           `json:"shuffle_id,omitempty"`
	Round     int              `json:"round,omitempty"`
	Senders   int              `json:"senders,omitempty"`
}

// ShardRegisterRequest installs a table on a shard node.
type ShardRegisterRequest struct {
	Name  string    `json:"name"`
	Table WireTable `json:"table"`
}

// ShardDistinctResponse is a shard-local distinct count.
type ShardDistinctResponse struct {
	Count int64 `json:"count"`
}

func (s *Service) handleShardQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeError(w, http.StatusMethodNotAllowed, "request", errors.New("service: POST a ShardQueryRequest"))
		return
	}
	var req ShardQueryRequest
	if status, err := DecodeStatementBody(w, r, &req); err != nil {
		writeError(w, status, "request", fmt.Errorf("service: %w", err))
		return
	}
	if req.SQL == "" {
		writeError(w, http.StatusBadRequest, "request", errors.New("service: empty query"))
		return
	}
	// Join the coordinator's distributed trace: the node's span subtree
	// rides home in the stream trailer under the same ID.
	ctx := r.Context()
	traceID := r.Header.Get(trace.HeaderTraceID)
	if traceID != "" {
		ctx = trace.NewContext(ctx, traceID)
		w.Header().Set(trace.HeaderTraceID, traceID)
	}
	ctx = trace.WithClient(ctx, r.RemoteAddr)
	var (
		rows *windowdb.Rows
		err  error
	)
	switch req.Mode {
	case "local":
		rows, err = s.StreamShardLocal(ctx, req.SQL, req.Fingerprint, req.SubplanFP)
	case "segment":
		rows, err = s.StreamSegment(ctx, req)
	case "full", "":
		rows, err = s.QueryContext(ctx, req.SQL)
	default:
		writeError(w, http.StatusBadRequest, "request", fmt.Errorf("service: unknown shard query mode %q", req.Mode))
		return
	}
	if err != nil {
		status, kind := StatusFor(err)
		writeError(w, status, kind, err)
		return
	}
	WriteStream(s.liveContext(r.Context(), traceID), w, rows, 0, s.streamCodec(r))
}

func (s *Service) handleShardRegister(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeError(w, http.StatusMethodNotAllowed, "request", errors.New("service: POST a ShardRegisterRequest"))
		return
	}
	var req ShardRegisterRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "request", fmt.Errorf("service: bad request body: %w", err))
		return
	}
	if req.Name == "" {
		writeError(w, http.StatusBadRequest, "request", errors.New("service: register needs a table name"))
		return
	}
	t, err := req.Table.Decode()
	if err != nil {
		writeError(w, http.StatusBadRequest, "request", err)
		return
	}
	s.eng.Register(req.Name, t)
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "rows": t.Len()})
}

func (s *Service) handleShardTable(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		writeError(w, http.StatusBadRequest, "request", errors.New("service: pass ?name="))
		return
	}
	t, err := s.eng.Table(name)
	if err != nil {
		status, kind := StatusFor(err)
		writeError(w, status, kind, err)
		return
	}
	// Chunked stream, never a whole JSON body: the gather data plane ships
	// raw rows with the same framing as /query's streamed responses, in
	// whichever codec the coordinator's Accept negotiated.
	WriteTableStream(r.Context(), w, t, s.streamCodec(r))
}

func (s *Service) handleShardDistinct(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("table")
	if name == "" {
		writeError(w, http.StatusBadRequest, "request", errors.New("service: pass ?table="))
		return
	}
	set, err := parseAttrSet(r.URL.Query().Get("attrs"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "request", err)
		return
	}
	entry, err := s.eng.Stats(name)
	if err != nil {
		status, kind := StatusFor(err)
		writeError(w, status, kind, err)
		return
	}
	writeJSON(w, http.StatusOK, ShardDistinctResponse{Count: entry.Distinct(set)})
}

// parseAttrSet parses a comma-separated attribute-ID list ("3,4") into a
// set. The empty string is the empty set.
func parseAttrSet(s string) (attrs.Set, error) {
	var set attrs.Set
	if s == "" {
		return set, nil
	}
	for _, part := range strings.Split(s, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || id < 0 || id >= 64 {
			return 0, fmt.Errorf("service: bad attribute id %q", part)
		}
		set = set.Add(attrs.ID(id))
	}
	return set, nil
}

// FormatAttrSet renders a set as the comma-separated ID list
// /shard/distinct accepts; the HTTP transport uses it to build requests.
func FormatAttrSet(set attrs.Set) string {
	ids := set.IDs()
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.Itoa(int(id))
	}
	return strings.Join(parts, ",")
}
