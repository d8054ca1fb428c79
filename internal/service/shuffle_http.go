package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/trace"
)

// The HTTP spelling of the shuffle data plane: /shard/shuffle/run executes
// one stage on a node, and the bare /shard/shuffle route is the
// node-to-node row exchange — one stream per (sender, receiver, round)
// with the same header/rows/trailer framing as /query's streamed
// responses, in either wire codec: binary columnar frames by default,
// NDJSON when the stage request says so. The receiver keys its decoder on
// the request content type and always accepts both, which is what lets a
// mixed-version cluster degrade per transport. Rows go straight from the
// wire into the receiver's inbox buffer; neither side materializes a
// request or response body.

// shuffleHeader is the first NDJSON line of a peer shuffle stream.
type shuffleHeader struct {
	ShuffleID string       `json:"shuffle_id"`
	Round     int          `json:"round"`
	Sender    int          `json:"sender"`
	Columns   []WireColumn `json:"columns"`
}

// shuffleIngestChunk bounds the rows decoded between inbox appends.
const shuffleIngestChunk = 512

// SendShuffleHTTP delivers one shuffle batch to a peer node's
// /shard/shuffle route as a streamed POST — binary columnar frames by
// default, NDJSON when the optional codec argument says CodecJSON. The
// cluster's HTTP transport and the shard-node handler's peer sender both
// use it.
func SendShuffleHTTP(ctx context.Context, hc *http.Client, base string, b *ShuffleBatch, codec ...WireCodec) error {
	if hc == nil {
		hc = http.DefaultClient
	}
	contentType := ContentTypeNDJSON
	pr, pw := io.Pipe()
	hdr := shuffleHeader{
		ShuffleID: b.ID, Round: b.Round, Sender: b.Sender,
		Columns: WireColumns(b.Cols),
	}
	if pickCodec(codec) == CodecBinary {
		contentType = ContentTypeBinary
		go func() {
			fw := stream.NewFrameWriter(pw)
			payload, err := json.Marshal(hdr)
			if err == nil {
				err = fw.WriteHeader(payload)
			}
			arity := len(b.Cols)
			for off := 0; err == nil && off < len(b.Rows); off += shuffleIngestChunk {
				end := off + shuffleIngestChunk
				if end > len(b.Rows) {
					end = len(b.Rows)
				}
				err = fw.WriteTuples(b.Rows[off:end], arity)
			}
			if err == nil {
				var payload []byte
				payload, err = json.Marshal(StreamTrailer{Done: true, RowCount: int64(len(b.Rows))})
				if err == nil {
					err = fw.WriteTrailer(payload)
				}
			}
			pw.CloseWithError(err)
		}()
	} else {
		go func() {
			enc := json.NewEncoder(pw)
			err := enc.Encode(hdr)
			for _, row := range b.Rows {
				if err != nil {
					break
				}
				err = encodeWireRow(enc, row)
			}
			if err == nil {
				err = enc.Encode(StreamTrailer{Done: true, RowCount: int64(len(b.Rows))})
			}
			pw.CloseWithError(err)
		}()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/shard/shuffle", pr)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("service: shuffle to %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return DecodeRemoteError(base, resp)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return nil
}

// handleShuffleRun executes one shuffle stage, delivering the re-shuffled
// output directly to the peer addresses the request names (self-deliveries
// skip the socket).
func (s *Service) handleShuffleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeError(w, http.StatusMethodNotAllowed, "request", errors.New("service: POST a ShuffleRunRequest"))
		return
	}
	var req ShuffleRunRequest
	if status, err := DecodeStatementBody(w, r, &req); err != nil {
		writeError(w, status, "request", fmt.Errorf("service: %w", err))
		return
	}
	// The trace ID rides in the request body on this route; fall back to
	// the header so hand-built curls still join a trace.
	if req.TraceID == "" {
		req.TraceID = r.Header.Get(trace.HeaderTraceID)
	}
	// The stage request picks the delivery codec; a node pinned to NDJSON
	// (DisableBinary) overrides it, and receivers sniff the content type, so
	// a mixed-codec fleet interoperates per transport.
	codec := CodecBinary
	if req.Codec == string(CodecJSON) || s.cfg.DisableBinary {
		codec = CodecJSON
	}
	send := func(ctx context.Context, peer int, b *ShuffleBatch) error {
		if peer == req.Self {
			return s.ShuffleAccept(ctx, b)
		}
		if peer < 0 || peer >= len(req.Peers) || req.Peers[peer] == "" {
			return fmt.Errorf("service: no address for shuffle peer %d", peer)
		}
		return SendShuffleHTTP(ctx, s.cfg.PeerClient, req.Peers[peer], b, codec)
	}
	res, err := s.RunShuffleStep(r.Context(), req, send)
	if err != nil {
		status, kind := StatusFor(err)
		writeError(w, status, kind, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleShuffleIngest receives one peer's shuffle stream, decoding rows
// incrementally into the inbox. The sender is registered complete only
// when the trailer arrives with the right row count — a cut stream leaves
// the buffer incomplete, which the consuming stage reports.
func (s *Service) handleShuffleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeError(w, http.StatusMethodNotAllowed, "request", errors.New("service: POST a shuffle stream"))
		return
	}
	bad := func(err error) {
		writeError(w, http.StatusBadRequest, "request", err)
	}
	// Keyed on the sender's declared content type, never on configuration:
	// an NDJSON-only peer can push into a binary-preferring node and vice
	// versa.
	if strings.Contains(r.Header.Get("Content-Type"), ContentTypeBinary) {
		s.ingestShuffleBinary(w, r, bad)
		return
	}
	br := bufio.NewReaderSize(r.Body, 64<<10)
	line, err := readNDJSONLine(br)
	if err != nil {
		bad(fmt.Errorf("service: reading shuffle header: %w", err))
		return
	}
	var hdr shuffleHeader
	if err := json.Unmarshal(line, &hdr); err != nil {
		bad(fmt.Errorf("service: bad shuffle header %q: %w", line, err))
		return
	}
	cols, err := DecodeColumns(hdr.Columns)
	if err != nil {
		bad(err)
		return
	}
	arity := len(cols)
	var batch []storage.Tuple
	var n int64
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := s.appendShuffle(hdr.ShuffleID, hdr.Round, arity, batch)
		batch = nil
		return err
	}
	for {
		line, err := readNDJSONLine(br)
		if err != nil {
			bad(fmt.Errorf("service: shuffle stream cut before trailer: %w", err))
			return
		}
		if line[0] != '[' {
			var trailer StreamTrailer
			if err := json.Unmarshal(line, &trailer); err != nil {
				bad(fmt.Errorf("service: bad shuffle trailer %q: %w", line, err))
				return
			}
			if trailer.RowCount != n {
				bad(fmt.Errorf("service: shuffle trailer counts %d rows, received %d", trailer.RowCount, n))
				return
			}
			break
		}
		t, err := decodeWireRow(line, arity)
		if err != nil {
			bad(fmt.Errorf("service: shuffle %w", err))
			return
		}
		batch = append(batch, t)
		n++
		if len(batch) >= shuffleIngestChunk {
			if err := flush(); err != nil {
				bad(err)
				return
			}
		}
	}
	if err := flush(); err != nil {
		bad(err)
		return
	}
	if err := s.finishShuffle(hdr.ShuffleID, hdr.Round, hdr.Sender, arity); err != nil {
		bad(err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "rows": n})
}

// ingestShuffleBinary is handleShuffleIngest's frame-codec twin: same
// header/rows/trailer protocol, decoded from binary columnar frames.
func (s *Service) ingestShuffleBinary(w http.ResponseWriter, r *http.Request, bad func(error)) {
	fr := stream.NewFrameReader(bufio.NewReaderSize(r.Body, 64<<10))
	f, err := fr.Next()
	if err != nil {
		bad(fmt.Errorf("service: reading shuffle header: %w", err))
		return
	}
	if f.Type != stream.FrameHeader {
		bad(fmt.Errorf("service: shuffle stream opened with %q frame, want header", f.Type))
		return
	}
	var hdr shuffleHeader
	if err := json.Unmarshal(f.Payload, &hdr); err != nil {
		bad(fmt.Errorf("service: bad shuffle header: %w", err))
		return
	}
	cols, err := DecodeColumns(hdr.Columns)
	if err != nil {
		bad(err)
		return
	}
	arity := len(cols)
	var n int64
	for {
		f, err := fr.Next()
		if err != nil {
			bad(fmt.Errorf("service: shuffle stream cut before trailer: %w", err))
			return
		}
		if f.Type == stream.FrameTrailer {
			var trailer StreamTrailer
			if err := json.Unmarshal(f.Payload, &trailer); err != nil {
				bad(fmt.Errorf("service: bad shuffle trailer: %w", err))
				return
			}
			if trailer.RowCount != n {
				bad(fmt.Errorf("service: shuffle trailer counts %d rows, received %d", trailer.RowCount, n))
				return
			}
			break
		}
		if f.Type != stream.FrameBatch {
			bad(fmt.Errorf("service: unexpected %q frame in shuffle stream", f.Type))
			return
		}
		b, err := stream.DecodeBatch(f.Payload, arity)
		if err != nil {
			bad(fmt.Errorf("service: shuffle %w", err))
			return
		}
		rows := b.Tuples()
		if len(rows) == 0 {
			continue
		}
		n += int64(len(rows))
		if err := s.appendShuffle(hdr.ShuffleID, hdr.Round, arity, rows); err != nil {
			bad(err)
			return
		}
	}
	if err := s.finishShuffle(hdr.ShuffleID, hdr.Round, hdr.Sender, arity); err != nil {
		bad(err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "rows": n})
}

// handleShuffleDrop discards a query's buffered shuffle state: the
// coordinator's cleanup after a failed or abandoned shuffle.
func (s *Service) handleShuffleDrop(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeError(w, http.StatusMethodNotAllowed, "request", errors.New("service: POST a drop request"))
		return
	}
	var req struct {
		ShuffleID string `json:"shuffle_id"`
	}
	if status, err := DecodeStatementBody(w, r, &req); err != nil {
		writeError(w, status, "request", fmt.Errorf("service: %w", err))
		return
	}
	if req.ShuffleID == "" {
		writeError(w, http.StatusBadRequest, "request", errors.New("service: drop needs a shuffle_id"))
		return
	}
	s.ShuffleDrop(req.ShuffleID)
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}
