package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	windowdb "repro"
	"repro/internal/attrs"
	"repro/internal/exec"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/trace"
)

// The node half of the cluster's shuffle data plane (the coordinator half
// lives in internal/shard): per-segment distributed execution of
// key-divergent window chains. The coordinator splits a statement's chain
// at its key-divergence points (sql.SegmentPlan) and drives one round per
// non-final stage: every node runs the stage over its current rows
// (RunShuffleStep) and re-shuffles the output directly to its peers,
// hash-partitioned on the next segment's key — rows never transit the
// coordinator. Peers ingest into a per-service shuffle inbox keyed by
// (shuffle id, round); the next round's stage consumes its inbox buffer
// whole (the coordinator barriers rounds, so a consumed buffer is always
// complete). The final segment streams its projected output back through
// StreamSegment, which the coordinator merge-concatenates exactly as the
// scatter route does.
//
// Memory discipline: a node's resident shuffle state is its own partition
// of the intermediate rows — the same order of magnitude as its registered
// table partition — and the coordinator holds only the final merge's
// in-flight rows. Slot discipline: each RunShuffleStep holds the node's
// admission slot for the stage's chain execution; StreamSegment holds it
// for the cursor lifetime, exactly like every other streamed query.

// ShuffleBatch is one sender's contribution to one inbox buffer: the rows
// of the receiver's hash partition, tagged with their round and sender so
// the receiver can account completeness.
type ShuffleBatch struct {
	ID     string
	Round  int
	Sender int
	Cols   []storage.Column
	Rows   []storage.Tuple
}

// ShuffleSend delivers one batch to peer (a shard index). The in-process
// cluster wires this straight into the peer services' inboxes; the HTTP
// handler builds an NDJSON POST to the peer's /shard/shuffle route.
type ShuffleSend func(ctx context.Context, peer int, b *ShuffleBatch) error

// ShuffleRunRequest asks a node to execute one non-final shuffle stage.
type ShuffleRunRequest struct {
	SQL string `json:"sql"`
	// Plan is the coordinator's segmentation decision; every node executes
	// the shipped step order (sql.SegmentPlan).
	Plan *sql.SegmentPlan `json:"plan"`
	// Segment is the segment to execute, or -1 for the raw stage: WHERE
	// filtering only, shuffling the statement's base rows onto the first
	// segment's key when the shard key does not already cover it.
	Segment int `json:"segment"`
	// Source is "local" (the node's registered partition) or "inbox" (the
	// shuffle buffer the previous round delivered).
	Source string `json:"source"`
	// ShuffleID names the query's shuffle state on every node.
	ShuffleID string `json:"shuffle_id"`
	// Round is the stage index: the inbox generation consumed when Source
	// is "inbox"; the stage's output is delivered to Round+1.
	Round int `json:"round"`
	// Senders is the cluster width: the expected sender count of every
	// inbox buffer and the partition count of the stage's output.
	Senders int `json:"senders"`
	// OutKey is the hash key the output rows partition on (base-schema
	// column indices): the next segment's common key.
	OutKey []int `json:"out_key"`
	// Peers are the nodes' base URLs for the HTTP data plane; Peers[Self]
	// is this node. Unused when Deliver is set.
	Peers []string `json:"peers,omitempty"`
	// Self is this node's shard index.
	Self int `json:"self"`
	// Fingerprint is the coordinator's plan fingerprint of SQL
	// (sql.Fingerprint); "" resolves by text.
	Fingerprint string `json:"fp,omitempty"`
	// TraceID joins the stage to the coordinator's distributed trace; ""
	// leaves the stage untraced.
	TraceID string `json:"trace_id,omitempty"`
	// Codec selects the wire codec for this stage's peer deliveries
	// ("json" or "binary"; "" means binary). The ingest route accepts
	// both regardless, keyed on the request content type.
	Codec string `json:"codec,omitempty"`
	// Deliver overrides peer delivery for in-process nodes. Never
	// serialized: a remote node builds its own NDJSON sender from Peers.
	Deliver ShuffleSend `json:"-"`
}

// ShuffleRunResult reports one executed stage: row flow plus the execution
// observations the coordinator aggregates.
type ShuffleRunResult struct {
	RowsIn        int64 `json:"rows_in"`
	RowsOut       int64 `json:"rows_out"`
	CacheHit      bool  `json:"cache_hit"`
	BlocksRead    int64 `json:"blocks_read"`
	BlocksWritten int64 `json:"blocks_written"`
	Comparisons   int64 `json:"comparisons"`

	// Per-phase wall-clock breakdown of the stage, for the coordinator's
	// shuffle-round trace spans: admission wait, input acquisition (local
	// base filter, or the wait-free inbox take whose cost is the rows a
	// slow peer has not yet delivered — by the round barrier it is the
	// take itself), segment chain execution, and partition + peer
	// delivery.
	QueuedMillis  float64 `json:"queued_ms"`
	InputMillis   float64 `json:"input_ms"`
	ExecMillis    float64 `json:"exec_ms"`
	DeliverMillis float64 `json:"deliver_ms"`
}

// shuffleInbox is a service's buffered shuffle state: one buffer per
// (shuffle id, round), each accumulating rows from every peer until the
// consuming stage takes it. Dropped shuffle ids leave a bounded tombstone
// trail so a straggler delivery racing the coordinator's cleanup — a peer
// still streaming when the drop lands — cannot silently re-create a
// deleted buffer that nothing would ever consume.
type shuffleInbox struct {
	mu      sync.Mutex
	bufs    map[string]*shuffleBuf
	dropped map[string]bool // recently dropped shuffle ids (tombstones)
	dropLog []string        // FIFO bounding dropped to shuffleTombstones
}

// shuffleTombstones bounds the remembered dropped ids: stragglers arrive
// within the failing round's cancellation window, so a short memory is
// enough, and the bound keeps a long-lived node from accumulating one
// entry per failed query forever.
const shuffleTombstones = 256

// tombstone records id as dropped. Caller holds in.mu.
func (in *shuffleInbox) tombstone(id string) {
	if in.dropped == nil {
		in.dropped = make(map[string]bool)
	}
	if in.dropped[id] {
		return
	}
	in.dropped[id] = true
	in.dropLog = append(in.dropLog, id)
	if len(in.dropLog) > shuffleTombstones {
		delete(in.dropped, in.dropLog[0])
		in.dropLog = in.dropLog[1:]
	}
}

type shuffleBuf struct {
	rows    []storage.Tuple
	arity   int
	senders map[int]bool // senders whose delivery completed
	touched time.Time    // last append/finish; drives the TTL sweep
}

func shuffleKey(id string, round int) string { return fmt.Sprintf("%s/%d", id, round) }

func (in *shuffleInbox) buf(id string, round int) *shuffleBuf {
	if in.bufs == nil {
		in.bufs = make(map[string]*shuffleBuf)
	}
	key := shuffleKey(id, round)
	b := in.bufs[key]
	if b == nil {
		b = &shuffleBuf{senders: make(map[int]bool)}
		in.bufs[key] = b
	}
	b.touched = time.Now()
	return b
}

// sweep drops buffers untouched for ttl: the node-side backstop for a
// coordinator that died (or whose cleanup drop never arrived) between
// delivering a round and consuming it — the only other way a buffer is
// freed is its take or an explicit drop. Caller holds in.mu; ttl 0
// disables.
func (in *shuffleInbox) sweep(ttl time.Duration) {
	if ttl <= 0 {
		return
	}
	cutoff := time.Now().Add(-ttl)
	for key, b := range in.bufs {
		if b.touched.Before(cutoff) {
			delete(in.bufs, key)
		}
	}
}

// sweepShuffle expires idle inbox buffers; called lazily from shuffle
// operations and Stats.
func (s *Service) sweepShuffle() {
	s.inbox.mu.Lock()
	s.inbox.sweep(s.cfg.ShuffleTTL)
	s.inbox.mu.Unlock()
}

// appendShuffle ingests a chunk of rows into a buffer; callers mark the
// sender complete with finishShuffle once its stream ends. arity pins the
// row width so a malformed sender fails fast instead of corrupting the
// buffer.
func (s *Service) appendShuffle(id string, round, arity int, rows []storage.Tuple) error {
	s.inbox.mu.Lock()
	defer s.inbox.mu.Unlock()
	s.inbox.sweep(s.cfg.ShuffleTTL)
	if s.inbox.dropped[id] {
		return fmt.Errorf("service: shuffle %s was dropped", id)
	}
	b := s.inbox.buf(id, round)
	if b.arity == 0 {
		b.arity = arity
	}
	if arity != b.arity {
		return fmt.Errorf("service: shuffle %s round %d: row arity %d != %d", id, round, arity, b.arity)
	}
	b.rows = append(b.rows, rows...)
	return nil
}

// finishShuffle records that a sender's delivery for (id, round) is
// complete, even when it contributed no rows.
func (s *Service) finishShuffle(id string, round, sender, arity int) error {
	s.inbox.mu.Lock()
	defer s.inbox.mu.Unlock()
	if s.inbox.dropped[id] {
		return fmt.Errorf("service: shuffle %s was dropped", id)
	}
	b := s.inbox.buf(id, round)
	if b.arity == 0 {
		b.arity = arity
	}
	if b.senders[sender] {
		return fmt.Errorf("service: shuffle %s round %d: sender %d delivered twice", id, round, sender)
	}
	b.senders[sender] = true
	return nil
}

// ShuffleAccept ingests one whole peer batch: the in-process delivery path
// (the HTTP route ingests incrementally through appendShuffle instead).
func (s *Service) ShuffleAccept(ctx context.Context, b *ShuffleBatch) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(b.Rows) > 0 {
		if err := s.appendShuffle(b.ID, b.Round, len(b.Cols), b.Rows); err != nil {
			return err
		}
	}
	return s.finishShuffle(b.ID, b.Round, b.Sender, len(b.Cols))
}

// takeShuffle removes and returns the buffer for (id, round) as a table
// with the given schema. The coordinator barriers rounds, so an incomplete
// buffer — missing senders, wrong arity — is a coordination fault.
func (s *Service) takeShuffle(id string, round, senders int, schema *storage.Schema) (*storage.Table, error) {
	s.inbox.mu.Lock()
	defer s.inbox.mu.Unlock()
	key := shuffleKey(id, round)
	b := s.inbox.bufs[key]
	if b == nil {
		return nil, fmt.Errorf("service: shuffle %s round %d: no buffered input", id, round)
	}
	delete(s.inbox.bufs, key)
	if len(b.senders) != senders {
		return nil, fmt.Errorf("service: shuffle %s round %d: %d of %d senders delivered", id, round, len(b.senders), senders)
	}
	if b.arity != 0 && b.arity != schema.Len() {
		return nil, fmt.Errorf("service: shuffle %s round %d: row arity %d != schema arity %d", id, round, b.arity, schema.Len())
	}
	t := storage.NewTable(schema)
	t.Rows = b.rows
	return t, nil
}

// ShuffleDrop discards every buffered round of shuffle id — the
// coordinator's cleanup path when a stage fails or a query is abandoned
// mid-shuffle — and tombstones the id so a peer delivery still in flight
// when the drop lands is rejected instead of re-creating a buffer nothing
// will ever consume.
func (s *Service) ShuffleDrop(id string) {
	s.inbox.mu.Lock()
	defer s.inbox.mu.Unlock()
	s.inbox.tombstone(id)
	prefix := id + "/"
	for key := range s.inbox.bufs {
		if len(key) > len(prefix) && key[:len(prefix)] == prefix {
			delete(s.inbox.bufs, key)
		}
	}
}

// ShuffleBuffered returns the number of buffered shuffle rounds; tests
// assert it returns to zero after failures and cancellations.
func (s *Service) ShuffleBuffered() int {
	s.inbox.mu.Lock()
	defer s.inbox.mu.Unlock()
	return len(s.inbox.bufs)
}

// RunShuffleStep executes one non-final shuffle stage: resolve the
// statement (plan cache), take the stage's input (local partition or inbox
// buffer), run the segment's chain steps under an admission slot, hash-
// partition the output on the next segment's key and deliver every
// partition to its peer through send (req.Deliver when send is nil). It
// returns when every peer has ingested its partition, which is what lets
// the coordinator barrier rounds. A failed delivery cancels the remaining
// sends.
func (s *Service) RunShuffleStep(ctx context.Context, req ShuffleRunRequest, send ShuffleSend) (*ShuffleRunResult, error) {
	if send == nil {
		send = req.Deliver
	}
	if send == nil {
		return nil, errors.New("service: shuffle stage without a delivery path")
	}
	if req.Senders < 1 || req.Plan == nil {
		return nil, errors.New("service: malformed shuffle stage request")
	}
	var entry *trace.QueryEntry
	fail := func(err error) (*ShuffleRunResult, error) {
		if entry.Killed() {
			s.metrics.aborted.Add(1)
		} else {
			s.metrics.failures.Add(1)
		}
		return nil, err
	}
	prep, hit, err := s.resolveFP(req.SQL, req.Fingerprint)
	if err != nil {
		return fail(err)
	}
	runner, err := prep.Segments(req.Plan)
	if err != nil {
		return fail(err)
	}
	if req.Segment >= runner.Segments()-1 {
		return fail(fmt.Errorf("service: shuffle stage for segment %d of %d: the final segment streams", req.Segment, runner.Segments()))
	}

	// Node-side lifecycle visibility: the stage registers under the
	// coordinator's trace ID, so the coordinator's /debug/queries merge
	// finds it and a fanned-out kill fires this cancel between phases.
	ctx, kill := context.WithCancel(ctx)
	defer kill()
	entry = s.reg.Register(req.TraceID, req.SQL, s.role(), trace.ClientFromContext(ctx), kill)
	defer s.reg.Remove(entry)
	live := entry.Live()
	ctx = trace.WithLive(ctx, live)
	phase := fmt.Sprintf("shuffle raw round %d", req.Round)
	if req.Segment >= 0 {
		phase = fmt.Sprintf("segment %d of %d", req.Segment+1, runner.Segments())
	}
	live.SetPhase("queued")

	// The stage's chain execution is a full chain-memory consumer; it takes
	// an admission slot like any other execution, released synchronously
	// when the stage (sends included) finishes.
	phaseStart := time.Now()
	if _, err := s.gov.acquire(ctx); err != nil {
		if errors.Is(err, ErrOverloaded) {
			s.metrics.rejected.Add(1)
		}
		return fail(err)
	}
	s.metrics.beginExec()
	defer func() {
		s.metrics.endExec()
		s.gov.release()
	}()
	s.metrics.shuffleRounds.Add(1)
	live.RaiseMemPeak(1)
	live.SetPhase(phase)
	queuedMillis := phaseMillis(&phaseStart)

	var in *storage.Table
	switch req.Source {
	case "local":
		in, err = runner.FilterBase(ctx)
	case "inbox":
		if req.Segment < 0 {
			err = errors.New("service: raw shuffle stage cannot read the inbox")
		} else {
			in, err = s.takeShuffle(req.ShuffleID, req.Round, req.Senders, runner.InputSchema(req.Segment))
		}
	default:
		err = fmt.Errorf("service: unknown shuffle source %q", req.Source)
	}
	if err != nil {
		return fail(err)
	}

	res := &ShuffleRunResult{
		RowsIn: int64(in.Len()), CacheHit: hit,
		QueuedMillis: queuedMillis, InputMillis: phaseMillis(&phaseStart),
	}
	out := in
	if req.Segment >= 0 {
		var m *exec.Metrics
		out, m, err = runner.Run(ctx, req.Segment, in)
		if err != nil {
			return fail(err)
		}
		if m != nil {
			res.BlocksRead = m.BlocksRead
			res.BlocksWritten = m.BlocksWritten
			res.Comparisons = m.Comparisons
		}
	}
	res.RowsOut = int64(out.Len())
	res.ExecMillis = phaseMillis(&phaseStart)

	ids := make([]attrs.ID, len(req.OutKey))
	for i, c := range req.OutKey {
		if c < 0 || c >= out.Schema.Len() {
			return fail(fmt.Errorf("service: shuffle key column %d outside the stage output schema", c))
		}
		ids[i] = attrs.ID(c)
	}
	parts := exec.PartitionRows(out.Rows, ids, req.Senders)

	// Deliver every partition concurrently; the first failure cancels the
	// peers' streams so a doomed round does not keep shipping rows.
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, req.Senders)
	var wg sync.WaitGroup
	for peer := 0; peer < req.Senders; peer++ {
		wg.Add(1)
		go func(peer int) {
			defer wg.Done()
			b := &ShuffleBatch{
				ID: req.ShuffleID, Round: req.Round + 1, Sender: req.Self,
				Cols: out.Schema.Columns, Rows: parts[peer],
			}
			if err := send(sctx, peer, b); err != nil {
				errs[peer] = err
				cancel()
			}
		}(peer)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return fail(err)
		}
	}
	if err := errors.Join(errs...); err != nil {
		return fail(err)
	}
	res.DeliverMillis = phaseMillis(&phaseStart)
	live.AddShuffleRows(res.RowsOut)
	return res, nil
}

// phaseMillis reports the milliseconds since *start and advances it: the
// phase clock RunShuffleStep reads between its stages.
func phaseMillis(start *time.Time) float64 {
	now := time.Now()
	d := now.Sub(*start)
	*start = now
	return float64(d) / float64(time.Millisecond)
}

// StreamSegment serves the final shuffle segment as a streaming cursor: the
// last rounds' inbox buffer runs through the segment's chain steps and the
// statement's projection, with the node's admission slot held for the
// cursor lifetime — the shuffle sibling of StreamShardLocal. DISTINCT,
// ORDER BY and LIMIT stay with the coordinator's finalize, as on the
// scatter route.
func (s *Service) StreamSegment(ctx context.Context, req ShardQueryRequest) (*windowdb.Rows, error) {
	if req.Plan == nil {
		return nil, errors.New("service: segment stream without a segment plan")
	}
	return s.streamCursor(ctx, req.SQL, req.SQL, req.Fingerprint, "draining", func(ctx context.Context, prep *sql.Prepared) (execCursor, error) {
		runner, err := prep.Segments(req.Plan)
		if err != nil {
			return nil, err
		}
		in, err := s.takeShuffle(req.ShuffleID, req.Round, req.Senders, runner.InputSchema(runner.Segments()-1))
		if err != nil {
			return nil, err
		}
		return runner.StreamFinal(ctx, in)
	})
}
