package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"repro/internal/attrs"
	"repro/internal/service"
	"repro/internal/storage"
	"repro/internal/trace"
)

// HTTP reaches a shard node over the /shard/* routes of its windserve
// process, so multiple processes form a real cluster. Safe for concurrent
// use (http.Client is). Row streams (scatter, gather, segment) and shuffle
// deliveries ride the binary columnar frame codec by default; NewHTTPCodec
// pins a transport to NDJSON, and either way the stream readers follow the
// node's response content type, so a mixed-version fleet degrades per
// transport instead of failing.
type HTTP struct {
	base   string
	client *http.Client
	codec  service.WireCodec
}

// NewHTTP builds a transport for a node address ("host:port" or a full
// http:// URL). A nil client uses http.DefaultClient.
func NewHTTP(addr string, client *http.Client) *HTTP {
	return NewHTTPCodec(addr, client, service.CodecBinary)
}

// NewHTTPCodec is NewHTTP with an explicit wire-codec preference for the
// node's row streams and this coordinator's shuffle deliveries.
func NewHTTPCodec(addr string, client *http.Client, codec service.WireCodec) *HTTP {
	base := strings.TrimRight(addr, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	if client == nil {
		client = http.DefaultClient
	}
	if codec == "" {
		codec = service.CodecBinary
	}
	return &HTTP{base: base, client: client, codec: codec}
}

// Addr returns the node's base URL.
func (h *HTTP) Addr() string { return h.base }

// RemoteError is a shard node's error response, preserving the service
// status taxonomy across the wire. It now lives in the service package
// (the streaming Client speaks it too); the alias keeps the shard-side
// name.
type RemoteError = service.RemoteError

// do runs one JSON round trip; a non-2xx response decodes into RemoteError.
func (h *HTTP) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("shard %s: encode request: %w", h.base, err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, h.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if id := trace.FromContext(ctx); id != "" {
		req.Header.Set(trace.HeaderTraceID, id)
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return fmt.Errorf("shard %s: %w", h.base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return service.DecodeRemoteError(h.base, resp)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("shard %s: decode response: %w", h.base, err)
	}
	return nil
}

// QueryStream implements Transport over the node's streamed /shard/query
// response: rows decode one wire batch (or NDJSON line) at a time, so the
// coordinator's resident state per node is bounded by the wire batch plus
// the transport's read buffer.
func (h *HTTP) QueryStream(ctx context.Context, req service.ShardQueryRequest) (RowStream, error) {
	sr, err := service.OpenStream(ctx, h.client, h.base+"/shard/query", req, h.codec)
	if err != nil {
		return nil, err
	}
	return &httpStream{sr: sr}, nil
}

// httpStream adapts a service.StreamReader to the transport's RowStream.
type httpStream struct {
	sr      *service.StreamReader
	outcome *QueryOutcome
}

func (hs *httpStream) Columns() []storage.Column { return hs.sr.Columns() }

func (hs *httpStream) Next() (storage.Tuple, error) {
	t, err := hs.sr.Next()
	if err == io.EOF && hs.outcome == nil {
		if tr := hs.sr.Trailer(); tr != nil {
			hs.outcome = &QueryOutcome{
				CacheHit:      tr.CacheHit,
				FinalSort:     tr.FinalSort,
				BlocksRead:    tr.BlocksRead,
				BlocksWritten: tr.BlocksWritten,
				Comparisons:   tr.Comparisons,
				Trace:         tr.Trace,
			}
		}
	}
	return t, err
}

func (hs *httpStream) Outcome() *QueryOutcome { return hs.outcome }

func (hs *httpStream) Close() error { return hs.sr.Close() }

// TableStream implements Transport over the node's /shard/table stream:
// the gather data plane rides the same chunked framing as query streams,
// so neither side ever materializes a whole table body.
func (h *HTTP) TableStream(ctx context.Context, name string) (RowStream, error) {
	sr, err := service.OpenStreamGet(ctx, h.client, h.base+"/shard/table?name="+url.QueryEscape(name), h.codec)
	if err != nil {
		return nil, err
	}
	return &httpStream{sr: sr}, nil
}

// ShuffleRun implements Transport: one buffered JSON control round trip;
// the heavy row traffic the stage produces flows node-to-node over the
// peers' own /shard/shuffle routes, never through this connection. The
// transport's codec preference rides along so a JSON-pinned coordinator
// also pins the stage's peer deliveries.
func (h *HTTP) ShuffleRun(ctx context.Context, req service.ShuffleRunRequest) (*service.ShuffleRunResult, error) {
	if req.Codec == "" {
		req.Codec = string(h.codec)
	}
	var res service.ShuffleRunResult
	if err := h.do(ctx, http.MethodPost, "/shard/shuffle/run", req, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// SegmentStream implements Transport over the node's streamed
// mode="segment" /shard/query response.
func (h *HTTP) SegmentStream(ctx context.Context, req service.ShardQueryRequest) (RowStream, error) {
	req.Mode = "segment"
	sr, err := service.OpenStream(ctx, h.client, h.base+"/shard/query", req, h.codec)
	if err != nil {
		return nil, err
	}
	return &httpStream{sr: sr}, nil
}

// AcceptShuffle implements Transport: a streamed POST to the node's
// /shard/shuffle ingest route in the transport's codec.
func (h *HTTP) AcceptShuffle(ctx context.Context, b *service.ShuffleBatch) error {
	return service.SendShuffleHTTP(ctx, h.client, h.base, b, h.codec)
}

// ShuffleDrop implements Transport.
func (h *HTTP) ShuffleDrop(ctx context.Context, id string) error {
	return h.do(ctx, http.MethodPost, "/shard/shuffle/drop", map[string]string{"shuffle_id": id}, nil)
}

// Register implements Transport.
func (h *HTTP) Register(ctx context.Context, name string, t *storage.Table) error {
	req := service.ShardRegisterRequest{Name: name, Table: service.EncodeTable(t)}
	return h.do(ctx, http.MethodPost, "/shard/register", req, nil)
}

// Append implements Transport: a JSON POST to the node's /append route,
// carrying the coordinator's watermark so the node's data generation
// converges on it.
func (h *HTTP) Append(ctx context.Context, table string, rows []storage.Tuple, watermark uint64) (service.AppendResponse, error) {
	req := service.AppendRequest{Table: table, Rows: make([][]service.WireValue, len(rows)), Watermark: watermark}
	for i, row := range rows {
		wr := make([]service.WireValue, len(row))
		for j, v := range row {
			wr[j] = service.WireValue{V: v}
		}
		req.Rows[i] = wr
	}
	var resp service.AppendResponse
	if err := h.do(ctx, http.MethodPost, "/append", req, &resp); err != nil {
		return service.AppendResponse{}, err
	}
	return resp, nil
}

// Subscribe implements Transport over the node's live /query stream: a
// SUBSCRIBE statement forces the chunked response shape and the node
// flushes per delta batch, so rows never park behind a fill buffer while
// the stream idles between appends.
func (h *HTTP) Subscribe(ctx context.Context, src string) (RowStream, error) {
	body := struct {
		SQL    string `json:"sql"`
		Stream bool   `json:"stream"`
	}{SQL: src, Stream: true}
	sr, err := service.OpenStream(ctx, h.client, h.base+"/query", body, h.codec)
	if err != nil {
		return nil, err
	}
	return &httpStream{sr: sr}, nil
}

// Distinct implements Transport.
func (h *HTTP) Distinct(ctx context.Context, table string, set attrs.Set) (int64, error) {
	var resp service.ShardDistinctResponse
	path := "/shard/distinct?table=" + url.QueryEscape(table) + "&attrs=" + service.FormatAttrSet(set)
	if err := h.do(ctx, http.MethodGet, path, nil, &resp); err != nil {
		return 0, err
	}
	return resp.Count, nil
}

// Stats implements Transport.
func (h *HTTP) Stats(ctx context.Context) (service.Snapshot, error) {
	var snap service.Snapshot
	err := h.do(ctx, http.MethodGet, "/stats", nil, &snap)
	return snap, err
}

// LiveQueries implements Transport.
func (h *HTTP) LiveQueries(ctx context.Context) ([]trace.QueryInfo, error) {
	var infos []trace.QueryInfo
	if err := h.do(ctx, http.MethodGet, "/debug/queries", nil, &infos); err != nil {
		return nil, err
	}
	return infos, nil
}

// KillQuery implements Transport. A node that holds no such query answers
// 404, which is not an error here — the coordinator fans the kill out to
// every node and only cares whether anyone held it.
func (h *HTTP) KillQuery(ctx context.Context, id string) (bool, error) {
	var resp service.KillResponse
	err := h.do(ctx, http.MethodDelete, "/debug/queries/"+url.PathEscape(id), nil, &resp)
	if err != nil {
		var re *RemoteError
		if errors.As(err, &re) && re.Status == http.StatusNotFound {
			return false, nil
		}
		return false, err
	}
	return resp.Killed, nil
}

// Health implements Transport.
func (h *HTTP) Health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return fmt.Errorf("shard %s: %w", h.base, err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("shard %s: health %s", h.base, resp.Status)
	}
	return nil
}
