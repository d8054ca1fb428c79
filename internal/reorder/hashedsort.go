package reorder

import (
	"fmt"
	"sort"

	"repro/internal/attrs"
	"repro/internal/core"
	"repro/internal/spill"
	"repro/internal/storage"
	"repro/internal/stream"
)

// SpillPolicy selects the victim when HS runs out of bucket memory.
type SpillPolicy uint8

const (
	// SpillLargest flushes the largest memory-resident bucket (default;
	// frees the most memory per flush and tends to keep many small buckets
	// resident — the behavior Eq. 2's N′ term models).
	SpillLargest SpillPolicy = iota
	// SpillRoundRobin flushes buckets cyclically; provided for the spill
	// policy ablation benchmark.
	SpillRoundRobin
)

// HSOptions configures one Hashed Sort.
type HSOptions struct {
	// HashKey is WHK ⊆ WPK: the partitioning attributes.
	HashKey []attrs.ID
	// SortKey is →WPK ∘ WOK: each bucket's sort order.
	SortKey attrs.Seq
	// Buckets overrides the bucket-count policy when > 0.
	Buckets int
	// DistinctHint estimates D(WHK) for the bucket-count policy (0 = unknown).
	DistinctHint int64
	// MFVs lists most-frequent WHK values (encoded with EncodeHashKey).
	// Tuples carrying them bypass partitioning and stream straight into a
	// dedicated sort that is emitted first (the Section 3.2 optimization).
	MFVs map[string]bool
	// SpillPolicy selects the flush victim strategy.
	SpillPolicy SpillPolicy
}

// HSStats reports a HashedSort execution.
type HSStats struct {
	Buckets         int
	SpilledBuckets  int
	MemoryResident  int
	MFVTuples       int
	InputTuples     int
	ExternalBuckets int // buckets whose sort spilled
}

// EncodeHashKey serializes the WHK projection of a tuple; used both for
// hashing and for MFV lookup.
func EncodeHashKey(t storage.Tuple, key []attrs.ID) []byte {
	return appendHashKey(nil, t, key)
}

// appendHashKey appends the EncodeHashKey encoding of t to buf.
func appendHashKey(buf []byte, t storage.Tuple, key []attrs.ID) []byte {
	for _, id := range key {
		buf = storage.AppendTuple(buf, storage.Tuple{t[id]})
	}
	return buf
}

// fnv1a hashes the encoded key.
func fnv1a(b []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	return h
}

// hsBucket is one hash partition during the build phase.
type hsBucket struct {
	mem     []storage.Tuple // memory-resident tuples
	memSize int
	writer  *spill.Writer // non-nil once the bucket has been flushed
	count   int
}

// releaseBuckets frees the spill files of the flushed buckets.
func releaseBuckets(buckets []*hsBucket) {
	for _, b := range buckets {
		if b.writer != nil {
			b.writer.File().Release()
		}
	}
}

// HashedSort reorders the input per Section 3.2. The output stream is one
// segment per non-empty bucket (MFV bucket first), each sorted on SortKey;
// its property is R_{WHK, SortKey}.
func HashedSort(in stream.Stream, opt HSOptions, cfg Config) (stream.Stream, HSStats, error) {
	var st HSStats
	if len(opt.HashKey) == 0 {
		return nil, st, fmt.Errorf("reorder: HashedSort requires a non-empty hash key")
	}
	if cfg.Store == nil {
		return nil, st, fmt.Errorf("reorder: HashedSort requires a spill store")
	}

	nbuckets := opt.Buckets
	if nbuckets <= 0 {
		// Estimate table size from the budget policy using the distinct
		// hint; the block count is unknown mid-stream, so the policy is
		// applied with a conservative default and corrected by the caller
		// (exec sizes it from catalog statistics).
		nbuckets = int(core.HSBucketCount(opt.DistinctHint, 0, 0))
	}
	if nbuckets < 1 {
		nbuckets = 1
	}

	buckets := make([]*hsBucket, nbuckets)
	for i := range buckets {
		buckets[i] = &hsBucket{}
	}
	var (
		memUsed   int
		mfvTuples []storage.Tuple
		rrNext    int
		key       []byte // the current tuple's encoded hash key
		err       error
		built     bool
	)
	defer in.Close()
	defer func() {
		if !built {
			releaseBuckets(buckets)
		}
	}()

	flush := func(b *hsBucket) error {
		if b.writer == nil {
			w, err := spill.NewWriter(cfg.Store)
			if err != nil {
				return err
			}
			b.writer = w
			st.SpilledBuckets++
		}
		for _, t := range b.mem {
			if err := b.writer.Write(t); err != nil {
				return err
			}
		}
		memUsed -= b.memSize
		b.mem = nil
		b.memSize = 0
		return nil
	}
	pickVictim := func() *hsBucket {
		switch opt.SpillPolicy {
		case SpillRoundRobin:
			for range buckets {
				b := buckets[rrNext%len(buckets)]
				rrNext++
				if len(b.mem) > 0 {
					return b
				}
			}
			return nil
		default:
			var victim *hsBucket
			for _, b := range buckets {
				if len(b.mem) > 0 && (victim == nil || b.memSize > victim.memSize) {
					victim = b
				}
			}
			return victim
		}
	}

	// Build phase: route every input tuple.
	for {
		r, ok := in.Next()
		if !ok {
			break
		}
		st.InputTuples++
		t := r.Tuple
		key = appendHashKey(key[:0], t, opt.HashKey)
		if opt.MFVs != nil && opt.MFVs[string(key)] {
			// Bypass: straight to the pipelined MFV sort, no partition I/O.
			mfvTuples = append(mfvTuples, t)
			st.MFVTuples++
			continue
		}
		b := buckets[fnv1a(key)%uint64(len(buckets))]
		if b.writer != nil {
			// Once flushed, a bucket stays disk-bound (Section 3.2).
			if err = b.writer.Write(t); err != nil {
				return nil, st, err
			}
			b.count++
			continue
		}
		size := t.Size()
		if cfg.MemoryBytes > 0 && memUsed+size > cfg.MemoryBytes {
			victim := pickVictim()
			if victim != nil {
				if err = flush(victim); err != nil {
					return nil, st, err
				}
			}
		}
		if b.writer != nil { // b itself was the victim
			if err = b.writer.Write(t); err != nil {
				return nil, st, err
			}
			b.count++
			continue
		}
		b.mem = append(b.mem, t)
		b.memSize += size
		b.count++
		memUsed += size
	}

	st.Buckets = 0
	for _, b := range buckets {
		if b.count > 0 {
			st.Buckets++
			if b.writer == nil {
				st.MemoryResident++
			}
		}
	}

	// Sort order: MFV bucket first, then memory-resident buckets, then
	// disk-resident buckets (Section 3.2's prescribed order).
	sort.SliceStable(buckets, func(i, j int) bool {
		mi := buckets[i].writer == nil
		mj := buckets[j].writer == nil
		return mi && !mj
	})

	out := &hsStream{
		cfg:     cfg,
		sortKey: opt.SortKey,
		buckets: buckets,
		arena:   storage.NewArena(cfg.Reserve),
		stats:   &st,
	}
	if len(mfvTuples) > 0 {
		sorted, sstats, err := cfg.sorter(opt.SortKey).SortTuples(mfvTuples)
		if err != nil {
			return nil, st, err
		}
		if !sstats.InMemory {
			st.ExternalBuckets++
		}
		out.current = sorted
	}
	built = true
	return out, st, nil
}

// hsStream lazily sorts and emits buckets one at a time. The spilled
// buckets it has not loaded yet are its to release: one by one as they
// load, all at once on error or Close.
type hsStream struct {
	cfg     Config
	sortKey attrs.Seq
	buckets []*hsBucket
	arena   *storage.Arena // decode target of every spilled bucket
	current []storage.Tuple
	pos     int
	stats   *HSStats
	err     error
}

func (s *hsStream) Next() (stream.Row, bool) {
	for {
		if s.pos < len(s.current) {
			r := stream.Row{Tuple: s.current[s.pos], Boundary: s.pos == 0}
			s.pos++
			return r, true
		}
		// Advance to the next non-empty bucket.
		var b *hsBucket
		for len(s.buckets) > 0 {
			cand := s.buckets[0]
			s.buckets = s.buckets[1:]
			if cand.count > 0 {
				b = cand
				break
			}
		}
		if b == nil {
			return stream.Row{}, false
		}
		tuples, err := s.loadBucket(b)
		if err != nil {
			s.fail(err)
			return stream.Row{}, false
		}
		sorted, sstats, err := s.cfg.sorter(s.sortKey).SortTuples(tuples)
		if err != nil {
			s.fail(err)
			return stream.Row{}, false
		}
		if !sstats.InMemory {
			s.stats.ExternalBuckets++
		}
		s.current = sorted
		s.pos = 0
	}
}

// fail records err and releases the buckets not yet loaded.
func (s *hsStream) fail(err error) {
	s.err = err
	releaseBuckets(s.buckets)
	s.buckets = nil
}

// loadBucket returns all of a bucket's tuples, reading back the spilled
// part into the stream's arena and releasing its file.
func (s *hsStream) loadBucket(b *hsBucket) ([]storage.Tuple, error) {
	if b.writer == nil {
		return b.mem, nil
	}
	f, err := b.writer.Finish()
	if err != nil {
		b.writer.File().Release()
		return nil, err
	}
	defer f.Release()
	rd, err := spill.NewArenaReader(f, s.arena)
	if err != nil {
		return nil, err
	}
	defer rd.Close()
	tuples := make([]storage.Tuple, 0, b.count)
	for {
		t, ok, err := rd.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		tuples = append(tuples, t)
	}
	// Under the flush rule a spilled bucket keeps nothing in memory (flush
	// moves everything and later arrivals append to the file); the guard
	// below is defensive.
	tuples = append(tuples, b.mem...)
	return tuples, nil
}

func (s *hsStream) Close() error {
	releaseBuckets(s.buckets)
	s.buckets = nil
	return s.err
}
