package exec_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/paper"
	"repro/internal/window"
)

// TestPaperCountersPinned runs the CSO chains of Q6–Q9 at the scaled
// "50MB" point, where every FS and HS spills, and pins the paper's two
// cost currencies — block I/O and key comparisons — to fixed values.
// Perf work on the spill path (codec, arenas, heaps, page store) must not
// move them; a deliberate algorithm change re-records them here and says
// so in its change notes.
func TestPaperCountersPinned(t *testing.T) {
	d := bench.Build(bench.Config{Rows: 10_000, Seed: 2})
	mem := d.SchemeMemSweep()[0]
	want := map[string]struct{ read, written, cmp int64 }{
		"Q6": {783, 783, 288669},
		"Q7": {827, 827, 243043},
		"Q8": {856, 856, 247040},
		"Q9": {1898, 1898, 716402},
	}
	queries := map[string]func() []window.Spec{"Q6": paper.Q6, "Q7": paper.Q7, "Q8": paper.Q8, "Q9": paper.Q9}
	for _, q := range []string{"Q6", "Q7", "Q8", "Q9"} {
		specs := queries[q]()
		plan, err := core.CSO(paper.WFs(specs), core.Unordered(), core.Options{Cost: d.Entry.CostParams(mem.Bytes(d.Cfg.BlockSize), d.Cfg.BlockSize)})
		if err != nil {
			t.Fatalf("%s: plan: %v", q, err)
		}
		cfg := exec.Config{MemoryBytes: mem.Bytes(d.Cfg.BlockSize), BlockSize: d.Cfg.BlockSize, Distinct: d.Entry.Distinct}
		_, m, err := exec.Run(d.WebSales, specs, plan, cfg)
		if err != nil {
			t.Fatalf("%s: run: %v", q, err)
		}
		if m.BlocksWritten == 0 {
			t.Errorf("%s: no spill at M=%d blocks; the pin no longer covers the spill path", q, mem.Blocks)
		}
		w := want[q]
		if m.BlocksRead != w.read || m.BlocksWritten != w.written || m.Comparisons != w.cmp {
			t.Errorf("%s: blocks read/written %d/%d, comparisons %d; pinned %d/%d, %d",
				q, m.BlocksRead, m.BlocksWritten, m.Comparisons, w.read, w.written, w.cmp)
		}
	}
}
