package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/trace"
)

// The streaming wire format: one query result as newline-delimited JSON
// (Content-Type application/x-ndjson), so a client renders — and a
// coordinator forwards — rows as they arrive instead of buffering the
// whole body. Three frame shapes, one per line:
//
//	{"columns":[{"name":"r","type":"INT"}, ...]}   header, first line
//	[{"i":"42"}, {"s":"x"}, null, ...]             one row, WireValue-tagged
//	{"done":true, "row_count":N, ...}              trailer, last line
//
// Rows use the lossless kind-tagged WireValue encoding (wire.go), so a
// streamed result decodes to exactly the values a local cursor yields —
// int64s past 2^53 included. Errors discovered after the 200 header has
// been sent arrive in the trailer as {"done":true,"error":...,"kind":...}
// with the same taxonomy kinds the buffered surface maps to HTTP statuses;
// a missing trailer means the stream was cut and the client reports a
// truncation error rather than silently serving a prefix.
//
// /query (engine and coordinator front ends) speaks this format when the
// request asks for it (NDJSONRequested); /shard/query (node scatter
// surface) always does. service.Client and the cluster's HTTP shard
// transport are the two consumers.

// ContentTypeNDJSON is the streamed response content type.
const ContentTypeNDJSON = "application/x-ndjson"

// ContentTypeBinary is the binary columnar streamed response content type
// (internal/stream's length-prefixed frame format: a JSON header frame,
// columnar row batches, a JSON trailer frame). Negotiated per request via
// Accept — a client that doesn't name it keeps getting NDJSON.
const ContentTypeBinary = "application/x-windowdb-frame"

// WireCodec names a streamed row encoding.
type WireCodec string

// The two wire codecs every streamed route speaks.
const (
	CodecJSON   WireCodec = "json"
	CodecBinary WireCodec = "binary"
)

// ParseCodec maps a codec spelling ("json", "binary", "") to a WireCodec;
// the empty string is the binary default.
func ParseCodec(s string) (WireCodec, error) {
	switch WireCodec(strings.ToLower(s)) {
	case CodecJSON:
		return CodecJSON, nil
	case CodecBinary, "":
		return CodecBinary, nil
	}
	return "", fmt.Errorf("service: unknown wire codec %q (want json or binary)", s)
}

// streamHeader is the first NDJSON line: the output schema.
type streamHeader struct {
	Columns []WireColumn `json:"columns"`
}

// StreamTrailer is the last NDJSON line: the query's outcome and serving
// observations (the streamed analogue of the buffered response's metadata
// fields, plus the error slot for mid-stream failures).
type StreamTrailer struct {
	Done  bool   `json:"done"`
	Error string `json:"error,omitempty"`
	Kind  string `json:"kind,omitempty"`

	RowCount  int64 `json:"row_count"`
	Truncated bool  `json:"truncated,omitempty"`

	// Watermark is the table data generation a SUBSCRIBE stream's output
	// was current as of when the stream ended; 0 for one-shot queries.
	Watermark uint64 `json:"watermark,omitempty"`

	ElapsedMillis float64 `json:"elapsed_ms"`
	QueuedMillis  float64 `json:"queued_ms"`
	CacheHit      bool    `json:"cache_hit"`
	// SharedScan is the shared-subplan cache disposition ("miss", "hit" or
	// "attach"); empty for executions that bypassed the cache.
	SharedScan string `json:"shared_scan,omitempty"`

	Chain      string `json:"chain,omitempty"`
	FinalSort  string `json:"final_sort,omitempty"`
	Route      string `json:"route,omitempty"`
	ShardsUsed int    `json:"shards_used,omitempty"`

	BlocksRead    int64 `json:"blocks_read"`
	BlocksWritten int64 `json:"blocks_written"`
	Comparisons   int64 `json:"comparisons"`

	// TraceID and Trace carry the query's distributed trace back to the
	// caller: the ID that names it in /debug/trace/{id}, and the span
	// subtree this node recorded. Trailer payloads are JSON in both wire
	// codecs, so the subtree travels codec-independently.
	TraceID string      `json:"trace_id,omitempty"`
	Trace   *trace.Span `json:"trace,omitempty"`
}

// TrailerFor renders a cursor's post-drain metrics as the stream trailer.
func TrailerFor(m *windowdb.QueryMetrics) StreamTrailer {
	t := StreamTrailer{Done: true}
	if m == nil {
		return t
	}
	t.RowCount = m.Rows
	t.Watermark = m.Watermark
	t.ElapsedMillis = float64(m.Elapsed) / float64(time.Millisecond)
	t.QueuedMillis = float64(m.Queued) / float64(time.Millisecond)
	t.CacheHit = m.CacheHit
	t.SharedScan = m.SharedScan
	t.Chain = m.Chain
	t.FinalSort = m.FinalSort
	t.Route = m.Route
	t.ShardsUsed = m.ShardsUsed
	t.BlocksRead = m.BlocksRead
	t.BlocksWritten = m.BlocksWritten
	t.Comparisons = m.Comparisons
	t.TraceID = m.TraceID
	t.Trace = m.Trace
	return t
}

// NDJSONRequested reports whether an HTTP request asked for the streamed
// response shape: an Accept header naming application/x-ndjson or
// application/x-windowdb-frame, or a stream=1 query parameter (the
// GET-friendly spelling).
func NDJSONRequested(r *http.Request) bool {
	accept := r.Header.Get("Accept")
	if strings.Contains(accept, ContentTypeNDJSON) || strings.Contains(accept, ContentTypeBinary) {
		return true
	}
	v := r.URL.Query().Get("stream")
	return v == "1" || strings.EqualFold(v, "true")
}

// BinaryRequested reports whether the request asked for the binary
// columnar stream: an Accept header naming application/x-windowdb-frame or
// a codec=binary query parameter.
func BinaryRequested(r *http.Request) bool {
	if strings.Contains(r.Header.Get("Accept"), ContentTypeBinary) {
		return true
	}
	return strings.EqualFold(r.URL.Query().Get("codec"), string(CodecBinary))
}

// NegotiateCodec picks the response codec for a stream request: binary
// only when the client named it, NDJSON for everything else — an unknown
// or absent Accept always degrades to NDJSON, so old clients keep working
// against new servers and a new client against an old server simply never
// sees the binary content type it asked for.
func NegotiateCodec(r *http.Request) WireCodec {
	if BinaryRequested(r) {
		return CodecBinary
	}
	return CodecJSON
}

// streamCodec is NegotiateCodec under the service's DisableBinary switch.
func (s *Service) streamCodec(r *http.Request) WireCodec {
	if s.cfg.DisableBinary {
		return CodecJSON
	}
	return NegotiateCodec(r)
}

// streamFlushStride is how many rows go out between explicit flushes: low
// enough that a slow consumer sees steady progress, high enough that the
// syscall cost disappears into the encoding work.
const streamFlushStride = 64

// streamBatchRows is how many rows a binary stream packs per columnar
// frame (and flushes together). Larger than the NDJSON flush stride: one
// frame amortizes the column-vector conversion, and 256 rows of packed
// values still sit well under a socket buffer.
const streamBatchRows = 256

// encodeWireRow writes one tuple as a WireValue-tagged NDJSON array line —
// the single definition of the row frame every stream writer (/query,
// /shard/table, the shuffle data plane) emits.
func encodeWireRow(enc *json.Encoder, row storage.Tuple) error {
	wr := make([]WireValue, len(row))
	for i, v := range row {
		wr[i] = WireValue{V: v}
	}
	return enc.Encode(wr)
}

// readNDJSONLine returns the next non-empty line without its terminator:
// the frame scanner shared by every stream reader.
func readNDJSONLine(br *bufio.Reader) ([]byte, error) {
	for {
		line, err := br.ReadBytes('\n')
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) > 0 {
			return trimmed, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// decodeWireRow decodes one NDJSON row line into a tuple, validating the
// arity against the stream's schema — the single definition of row-frame
// decoding, shared by StreamReader and the shuffle ingest handler.
func decodeWireRow(line []byte, arity int) (storage.Tuple, error) {
	var row []WireValue
	if err := json.Unmarshal(line, &row); err != nil {
		return nil, fmt.Errorf("bad stream row: %w", err)
	}
	if len(row) != arity {
		return nil, fmt.Errorf("stream row arity %d != schema arity %d", len(row), arity)
	}
	t := make(storage.Tuple, len(row))
	for i, v := range row {
		t[i] = v.V
	}
	return t, nil
}

// WriteStream serves rows as a stream in the negotiated codec and closes
// the cursor. It owns the response from the first byte: callers must not
// have written a status. maxRows > 0 truncates the stream after that many
// rows (the trailer marks it). ctx — the request context — aborts the
// stream between flushes when the client disconnects, which is what
// releases the cursor's admission slot mid-stream.
func WriteStream(ctx context.Context, w http.ResponseWriter, rows *windowdb.Rows, maxRows int, codec WireCodec) {
	writeStream(ctx, w, rows, maxRows, codec, streamFlushStride, streamBatchRows)
}

// WriteLiveStream is WriteStream for subscription cursors: every row is
// flushed as it is written (NDJSON) or framed singly (binary), because a
// live cursor blocks indefinitely between delta batches and a row parked
// behind the flush stride would never reach the client.
func WriteLiveStream(ctx context.Context, w http.ResponseWriter, rows *windowdb.Rows, maxRows int, codec WireCodec) {
	writeStream(ctx, w, rows, maxRows, codec, 1, 1)
}

func writeStream(ctx context.Context, w http.ResponseWriter, rows *windowdb.Rows, maxRows int, codec WireCodec, stride, batchRows int) {
	if live := trace.LiveFromContext(ctx); live != nil {
		// Account response-body bytes to the owning /debug/queries entry.
		w = &liveCountingWriter{ResponseWriter: w, live: live}
	}
	if codec == CodecBinary {
		writeStreamBinary(ctx, w, rows, maxRows, batchRows)
		return
	}
	defer rows.Close()
	w.Header().Set("Content-Type", ContentTypeNDJSON)
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	if err := enc.Encode(streamHeader{Columns: WireColumns(rows.ColumnTypes())}); err != nil {
		return
	}
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	// Ship the header before the first row: a live cursor with an empty
	// initial result blocks indefinitely on its first row, and a client
	// opening the stream waits on the response header — without this flush
	// the two deadlock against each other.
	flush()

	var n int64
	truncated := false
	for rows.Next() {
		if err := encodeWireRow(enc, rows.Row()); err != nil {
			return // client gone; the deferred Close releases the slot
		}
		n++
		if n%int64(stride) == 0 {
			flush()
			if ctx.Err() != nil {
				return
			}
		}
		if maxRows > 0 && n >= int64(maxRows) {
			// Probe one more row before declaring truncation: an
			// exact-boundary result was fully delivered (and the probe's
			// io.EOF lets the source classify the query as completed, not
			// aborted).
			truncated = rows.Next()
			break
		}
	}

	// Close before reading Metrics: post-drain metadata is finalized when
	// the stream ends, and a truncated drain ends it via Close.
	_ = rows.Close()
	var trailer StreamTrailer
	if err := rows.Err(); err != nil {
		_, kind := StatusFor(err)
		trailer = StreamTrailer{Done: true, Error: err.Error(), Kind: kind, RowCount: n}
		// A failed stream still ships whatever spans were recorded — a
		// node dying mid-shuffle is exactly when the trace matters.
		if m := rows.Metrics(); m != nil {
			trailer.TraceID, trailer.Trace = m.TraceID, m.Trace
		}
	} else {
		trailer = TrailerFor(rows.Metrics())
		trailer.RowCount = n
		trailer.Truncated = truncated
	}
	_ = enc.Encode(trailer)
	flush()
}

// writeStreamBinary is WriteStream's binary half: the same header, rows,
// trailer contract (error trailers and truncation probing included), with
// rows leaving as columnar frames of streamBatchRows tuples. Buffering the
// cursor's tuples is safe — Rows.Row() tuples are caller-owned and stay
// valid across Next.
// liveCountingWriter accounts every response-body byte to the owning
// query's live counters — the wire_bytes column of /debug/queries. Its
// Flush keeps the wrapped writer's streaming behavior.
type liveCountingWriter struct {
	http.ResponseWriter
	live *trace.Live
}

func (cw *liveCountingWriter) Write(p []byte) (int, error) {
	n, err := cw.ResponseWriter.Write(p)
	cw.live.AddWireBytes(int64(n))
	return n, err
}

func (cw *liveCountingWriter) Flush() {
	if f, ok := cw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func writeStreamBinary(ctx context.Context, w http.ResponseWriter, rows *windowdb.Rows, maxRows, batchRows int) {
	defer rows.Close()
	w.Header().Set("Content-Type", ContentTypeBinary)
	w.WriteHeader(http.StatusOK)
	fw := stream.NewFrameWriter(w)
	hdr, err := json.Marshal(streamHeader{Columns: WireColumns(rows.ColumnTypes())})
	if err != nil || fw.WriteHeader(hdr) != nil {
		return
	}
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	// Same contract as the NDJSON writer: the header frame leaves before
	// the first row, or a subscription whose initial result is empty (an
	// empty shard partition, say) wedges the opening client forever.
	flush()
	arity := len(rows.ColumnTypes())
	batch := make([]storage.Tuple, 0, batchRows)
	emit := func() bool {
		if len(batch) == 0 {
			return true
		}
		if fw.WriteTuples(batch, arity) != nil {
			return false // client gone; the deferred Close releases the slot
		}
		batch = batch[:0]
		flush()
		return ctx.Err() == nil
	}

	var n int64
	truncated := false
	for rows.Next() {
		batch = append(batch, rows.Row())
		n++
		if len(batch) >= batchRows {
			if !emit() {
				return
			}
		}
		if maxRows > 0 && n >= int64(maxRows) {
			truncated = rows.Next()
			break
		}
	}
	if !emit() {
		return
	}

	_ = rows.Close()
	var trailer StreamTrailer
	if err := rows.Err(); err != nil {
		_, kind := StatusFor(err)
		trailer = StreamTrailer{Done: true, Error: err.Error(), Kind: kind, RowCount: n}
		if m := rows.Metrics(); m != nil {
			trailer.TraceID, trailer.Trace = m.TraceID, m.Trace
		}
	} else {
		trailer = TrailerFor(rows.Metrics())
		trailer.RowCount = n
		trailer.Truncated = truncated
	}
	tb, err := json.Marshal(trailer)
	if err != nil {
		return
	}
	_ = fw.WriteTrailer(tb)
	flush()
}

// WriteTableStream serves a materialized table as a stream with
// WriteStream's framing (header, rows, trailer) in the negotiated codec:
// the /shard/table response shape, so the gather data plane ships raw rows
// without either side materializing a whole HTTP body. ctx aborts the
// stream between flushes when the client disconnects.
func WriteTableStream(ctx context.Context, w http.ResponseWriter, t *storage.Table, codec WireCodec) {
	if codec == CodecBinary {
		writeTableStreamBinary(ctx, w, t)
		return
	}
	w.Header().Set("Content-Type", ContentTypeNDJSON)
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	if err := enc.Encode(streamHeader{Columns: WireColumns(t.Schema.Columns)}); err != nil {
		return
	}
	flusher, _ := w.(http.Flusher)
	var n int64
	for _, row := range t.Rows {
		if err := encodeWireRow(enc, row); err != nil {
			return
		}
		n++
		if n%streamFlushStride == 0 {
			if flusher != nil {
				flusher.Flush()
			}
			if ctx.Err() != nil {
				return
			}
		}
	}
	_ = enc.Encode(StreamTrailer{Done: true, RowCount: n})
	if flusher != nil {
		flusher.Flush()
	}
}

// writeTableStreamBinary is WriteTableStream's binary half: the table's
// rows leave as columnar frames, chunked by streamBatchRows.
func writeTableStreamBinary(ctx context.Context, w http.ResponseWriter, t *storage.Table) {
	w.Header().Set("Content-Type", ContentTypeBinary)
	w.WriteHeader(http.StatusOK)
	fw := stream.NewFrameWriter(w)
	hdr, err := json.Marshal(streamHeader{Columns: WireColumns(t.Schema.Columns)})
	if err != nil || fw.WriteHeader(hdr) != nil {
		return
	}
	flusher, _ := w.(http.Flusher)
	arity := t.Schema.Len()
	for off := 0; off < len(t.Rows); off += streamBatchRows {
		end := off + streamBatchRows
		if end > len(t.Rows) {
			end = len(t.Rows)
		}
		if fw.WriteTuples(t.Rows[off:end], arity) != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		if ctx.Err() != nil {
			return
		}
	}
	tb, err := json.Marshal(StreamTrailer{Done: true, RowCount: int64(len(t.Rows))})
	if err != nil {
		return
	}
	_ = fw.WriteTrailer(tb)
	if flusher != nil {
		flusher.Flush()
	}
}

// StreamReader consumes one result stream, NDJSON or binary: the client
// half of WriteStream. The codec follows the response Content-Type, not
// the request — a JSON-only server answering a binary-preferring Accept
// with NDJSON reads fine, which is what lets mixed-version fleets degrade
// per transport. Next yields decoded tuples and io.EOF at the trailer;
// Trailer exposes the trailer after EOF. A stream that ends without a
// trailer (a cut connection) surfaces an error instead of a silent prefix.
type StreamReader struct {
	node string
	body io.ReadCloser
	br   *bufio.Reader       // NDJSON streams
	fr   *stream.FrameReader // binary streams (exactly one of br/fr is set)
	pend []storage.Tuple     // decoded rows of the current binary batch
	pi   int

	cols    []storage.Column
	trailer *StreamTrailer
	err     error
}

// OpenStream POSTs body as JSON to url with the stream accept header and
// returns a reader over the response stream. The optional codec caps what
// the request advertises: by default it accepts the binary frame stream
// with NDJSON fallback; CodecJSON restricts it to NDJSON. Non-2xx
// responses decode into *RemoteError carrying the service error taxonomy.
func OpenStream(ctx context.Context, hc *http.Client, url string, reqBody any, codec ...WireCodec) (*StreamReader, error) {
	buf, err := json.Marshal(reqBody)
	if err != nil {
		return nil, fmt.Errorf("service: encode request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return openStream(hc, req, url, pickCodec(codec))
}

// OpenStreamGet is OpenStream for body-less GET routes (/shard/table).
func OpenStreamGet(ctx context.Context, hc *http.Client, url string, codec ...WireCodec) (*StreamReader, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return openStream(hc, req, url, pickCodec(codec))
}

// pickCodec resolves the optional codec argument; absent means binary-
// preferred (the reader follows whatever content type the server picks).
func pickCodec(codec []WireCodec) WireCodec {
	if len(codec) > 0 && codec[0] == CodecJSON {
		return CodecJSON
	}
	return CodecBinary
}

// openStream issues req and wraps the streamed response in a StreamReader,
// selecting the row decoder from the response content type.
func openStream(hc *http.Client, req *http.Request, url string, codec WireCodec) (*StreamReader, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	// Propagate the caller's trace: any stream opened under a traced
	// context — a client /query, a coordinator's scatter or gather fan-out
	// — carries the ID so the server joins instead of minting.
	if id := trace.FromContext(req.Context()); id != "" {
		req.Header.Set(trace.HeaderTraceID, id)
	}
	if codec == CodecBinary {
		// Prefer binary, accept NDJSON: a server without the binary codec
		// ignores the first alternative and streams NDJSON.
		req.Header.Set("Accept", ContentTypeBinary+", "+ContentTypeNDJSON)
	} else {
		req.Header.Set("Accept", ContentTypeNDJSON)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("service: %s: %w", url, err)
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		return nil, DecodeRemoteError(url, resp)
	}
	return wrapResponse(url, resp)
}

// wrapResponse builds a StreamReader over an already-issued 2xx streamed
// response, sniffing the codec from the response content type.
func wrapResponse(url string, resp *http.Response) (*StreamReader, error) {
	var err error
	sr := &StreamReader{node: url, body: resp.Body}
	var hdr []byte
	if strings.Contains(resp.Header.Get("Content-Type"), ContentTypeBinary) {
		sr.fr = stream.NewFrameReader(resp.Body)
		f, err := sr.fr.Next()
		if err == nil && f.Type != stream.FrameHeader {
			err = fmt.Errorf("first frame is %c, want header", f.Type)
		}
		if err != nil {
			resp.Body.Close()
			return nil, fmt.Errorf("service: %s: reading stream header: %w", url, err)
		}
		hdr = f.Payload
	} else {
		sr.br = bufio.NewReaderSize(resp.Body, 64<<10)
		hdr, err = sr.readLine()
		if err != nil {
			resp.Body.Close()
			return nil, fmt.Errorf("service: %s: reading stream header: %w", url, err)
		}
	}
	var h streamHeader
	if err := json.Unmarshal(hdr, &h); err != nil {
		resp.Body.Close()
		return nil, fmt.Errorf("service: %s: bad stream header %q: %w", url, hdr, err)
	}
	cols, err := DecodeColumns(h.Columns)
	if err != nil {
		resp.Body.Close()
		return nil, err
	}
	sr.cols = cols
	return sr, nil
}

// Columns returns the streamed schema from the header line.
func (sr *StreamReader) Columns() []storage.Column { return sr.cols }

// readLine returns the next non-empty line without its terminator.
func (sr *StreamReader) readLine() ([]byte, error) {
	return readNDJSONLine(sr.br)
}

// Next returns the next row, io.EOF after the trailer, or an error — a
// decode failure, a mid-stream server error from the trailer (unwrapping
// to the taxonomy sentinels via RemoteError), or a truncated stream.
func (sr *StreamReader) Next() (storage.Tuple, error) {
	if sr.trailer != nil {
		return nil, io.EOF
	}
	if sr.err != nil {
		return nil, sr.err
	}
	if sr.fr != nil {
		return sr.nextBinary()
	}
	line, err := sr.readLine()
	if err != nil {
		sr.err = fmt.Errorf("service: %s: stream cut before trailer: %w", sr.node, err)
		return nil, sr.err
	}
	if line[0] == '[' {
		t, err := decodeWireRow(line, len(sr.cols))
		if err != nil {
			sr.err = fmt.Errorf("service: %s: %w", sr.node, err)
			return nil, sr.err
		}
		return t, nil
	}
	var trailer StreamTrailer
	if err := json.Unmarshal(line, &trailer); err != nil {
		sr.err = fmt.Errorf("service: %s: bad stream trailer %q: %w", sr.node, line, err)
		return nil, sr.err
	}
	if trailer.Error != "" {
		sr.err = &RemoteError{Node: sr.node, Status: http.StatusOK, Kind: trailer.Kind, Msg: trailer.Error}
		return nil, sr.err
	}
	sr.trailer = &trailer
	return nil, io.EOF
}

// nextBinary is Next over the binary frame stream: rows come from the
// current batch's decoded tuples, refilled a frame at a time.
func (sr *StreamReader) nextBinary() (storage.Tuple, error) {
	for {
		if sr.pi < len(sr.pend) {
			t := sr.pend[sr.pi]
			sr.pi++
			return t, nil
		}
		f, err := sr.fr.Next()
		if err != nil {
			sr.err = fmt.Errorf("service: %s: stream cut before trailer: %w", sr.node, err)
			return nil, sr.err
		}
		switch f.Type {
		case stream.FrameBatch:
			b, err := stream.DecodeBatch(f.Payload, len(sr.cols))
			if err != nil {
				sr.err = fmt.Errorf("service: %s: %w", sr.node, err)
				return nil, sr.err
			}
			sr.pend, sr.pi = b.Tuples(), 0
		case stream.FrameTrailer:
			var trailer StreamTrailer
			if err := json.Unmarshal(f.Payload, &trailer); err != nil {
				sr.err = fmt.Errorf("service: %s: bad stream trailer %q: %w", sr.node, f.Payload, err)
				return nil, sr.err
			}
			if trailer.Error != "" {
				sr.err = &RemoteError{Node: sr.node, Status: http.StatusOK, Kind: trailer.Kind, Msg: trailer.Error}
				return nil, sr.err
			}
			sr.trailer = &trailer
			return nil, io.EOF
		default:
			sr.err = fmt.Errorf("service: %s: unexpected %c frame mid-stream", sr.node, f.Type)
			return nil, sr.err
		}
	}
}

// Trailer returns the stream trailer, nil until Next returned io.EOF.
func (sr *StreamReader) Trailer() *StreamTrailer { return sr.trailer }

// Close releases the underlying response body; closing a half-read stream
// is how a client disconnects (the server sees the write fail or the
// request context cancel, and releases its slot).
func (sr *StreamReader) Close() error { return sr.body.Close() }
