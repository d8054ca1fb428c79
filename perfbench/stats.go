package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile is the nearest-rank quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runtimeSample reads the Go runtime counters the benchmark reports.
type runtimeSample struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
	allocObjects    uint64
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		gcCPU:        s[0].Value.Float64(),
		totalCPU:     s[1].Value.Float64(),
		allocBytes:   s[2].Value.Uint64(),
		allocObjects: s[3].Value.Uint64(),
	}
}

// heapWatch records, every few milliseconds, the live heap the latest GC
// cycle marked, once per cycle. Stop returns the 90th percentile over the
// cycles of the window in MB: the high-water mark of live heap, taken at
// a percentile because the single highest cycle depends on which queries
// happened to be in flight when it ran.
type heapWatch struct {
	stop    chan struct{}
	done    chan struct{}
	mu      sync.Mutex
	samples []float64
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	last := s[1].Value.Uint64()
	read := func() {
		metrics.Read(s)
		if c := s[1].Value.Uint64(); c != last {
			last = c
			h.mu.Lock()
			h.samples = append(h.samples, float64(s[0].Value.Uint64())/(1<<20))
			h.mu.Unlock()
		}
	}
	go func() {
		defer close(h.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

func (h *heapWatch) Stop() (mb float64, cycles int) {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		// No cycle ran in the window: force one so the figure is measured.
		runtime.GC()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		return float64(s[0].Value.Uint64()) / (1 << 20), 1
	}
	return quantile(h.samples, 0.9), len(h.samples)
}

// settle collects garbage left by set-up so that every measured window
// starts from the same heap state.
func settle() {
	runtime.GC()
	runtime.GC()
}
