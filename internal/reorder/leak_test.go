package reorder

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/attrs"
	"repro/internal/pagestore"
	"repro/internal/stream"
)

// sabotage deletes the victim-th spill file of dir when its input runs
// dry — after run formation or the HS build phase has spilled, before
// anything is read back — so the merge or bucket load that reaches the
// file fails.
type sabotage struct {
	stream.Stream
	dir    string
	victim int
	fired  bool
	hit    bool // a file was deleted
}

func (s *sabotage) Next() (stream.Row, bool) {
	r, ok := s.Stream.Next()
	if !ok && !s.fired {
		s.fired = true
		if entries, err := os.ReadDir(s.dir); err == nil && s.victim < len(entries) {
			s.hit = os.Remove(filepath.Join(s.dir, entries[s.victim].Name())) == nil
		}
	}
	return r, ok
}

// fileBacked returns a reorder config spilling into a fresh temp dir.
func fileBacked(t *testing.T, memBytes int) (Config, string) {
	dir := t.TempDir()
	return Config{MemoryBytes: memBytes, Store: pagestore.NewFileBacked(dir, 512, nil)}, dir
}

// assertNothingLeft fails when dir still holds spill files or the process
// holds descriptors open into it (checked where /proc/self/fd exists).
func assertNothingLeft(t *testing.T, dir, what string) {
	t.Helper()
	if entries, err := os.ReadDir(dir); err != nil {
		t.Fatal(err)
	} else if len(entries) > 0 {
		t.Errorf("%s: %d spill files left in the spill dir", what, len(entries))
	}
	real, err := filepath.EvalSymlinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return
	}
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err == nil && strings.HasPrefix(target, real+string(filepath.Separator)) {
			t.Errorf("%s: descriptor %s still open on %s", what, fd.Name(), target)
		}
	}
}

// TestFullSortFailedMergeLeaksNothing deletes each spill file in turn
// before the merge: every such sort must fail, and every one — like the
// undisturbed sort — must leave no file and no open reader behind, in
// both the single-merge and the multi-pass regime.
func TestFullSortFailedMergeLeaksNothing(t *testing.T) {
	rows := randTable(rand.New(rand.NewSource(5)), 2000, 50, 10)
	key := attrs.AscSeq(0, 1)
	for _, tc := range []struct {
		name   string
		mem    int
		passes int
	}{{"single-merge", 16 << 10, 0}, {"multi-pass", 4 << 10, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			for victim := 0; ; victim++ {
				cfg, dir := fileBacked(t, tc.mem)
				in := &sabotage{Stream: stream.FromTuples(rows), dir: dir, victim: victim}
				out, st, err := FullSort(in, key, cfg)
				if !in.hit {
					if err != nil {
						t.Fatalf("undisturbed sort: %v", err)
					}
					if st.Sort.MergePasses < tc.passes || st.Sort.InitialRuns < 2 {
						t.Fatalf("regime not reached: %+v", st.Sort)
					}
					if _, err := stream.CollectTuples(out); err != nil {
						t.Fatal(err)
					}
					assertNothingLeft(t, dir, "undisturbed sort")
					return
				}
				if err == nil {
					t.Fatalf("victim %d: sort succeeded without one of its runs", victim)
				}
				assertNothingLeft(t, dir, "failed sort")
			}
		})
	}
}

// TestHashedSortFailedLoadLeaksNothing deletes each spilled bucket in turn
// after the build phase; the stream must fail and release every bucket it
// had not loaded. Closing a stream before draining it releases them too.
func TestHashedSortFailedLoadLeaksNothing(t *testing.T) {
	rows := randTable(rand.New(rand.NewSource(6)), 5000, 100, 10)
	opt := HSOptions{HashKey: []attrs.ID{0}, SortKey: attrs.AscSeq(0, 1), Buckets: 32}
	for victim := 0; ; victim++ {
		cfg, dir := fileBacked(t, 2048)
		in := &sabotage{Stream: stream.FromTuples(rows), dir: dir, victim: victim}
		out, st, err := HashedSort(in, opt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !in.hit {
			if victim < 2 || st.SpilledBuckets < 2 {
				t.Fatalf("too few spilled buckets: %+v", st)
			}
			break
		}
		if _, err := stream.CollectTuples(out); err == nil {
			t.Fatalf("victim %d: drained without one of its buckets", victim)
		}
		assertNothingLeft(t, dir, "failed bucket load")
	}

	cfg, dir := fileBacked(t, 2048)
	out, _, err := HashedSort(stream.FromTuples(rows), opt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out.Next(); !ok {
		t.Fatal("empty output")
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	assertNothingLeft(t, dir, "closed before drained")
}
