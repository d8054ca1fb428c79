package pagestore

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
)

func TestWriteReadAccounting(t *testing.T) {
	for _, backend := range []string{"mem", "file"} {
		t.Run(backend, func(t *testing.T) {
			stats := &Stats{}
			var store *Store
			if backend == "mem" {
				store = NewMem(1024, stats)
			} else {
				store = NewFileBacked(t.TempDir(), 1024, stats)
			}
			f, err := store.Create()
			if err != nil {
				t.Fatal(err)
			}
			payload := make([]byte, 2500) // 2.44 pages
			for i := range payload {
				payload[i] = byte(i)
			}
			if _, err := f.Write(payload); err != nil {
				t.Fatal(err)
			}
			if err := f.Seal(); err != nil {
				t.Fatal(err)
			}
			if got := stats.BlocksWritten(); got != 3 {
				t.Errorf("BlocksWritten = %d, want 3 (2 full + 1 partial page)", got)
			}
			if f.Blocks() != 3 || f.Size() != 2500 {
				t.Errorf("Blocks=%d Size=%d", f.Blocks(), f.Size())
			}

			rd, err := f.NewReader()
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(rd)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("read back %d bytes, mismatch", len(got))
			}
			if r := stats.BlocksRead(); r != 3 {
				t.Errorf("BlocksRead = %d, want 3", r)
			}
			rd.Close()
			f.Release()
		})
	}
}

func TestReaderSmallReadsCountPagesOnce(t *testing.T) {
	stats := &Stats{}
	store := NewMem(100, stats)
	f, _ := store.Create()
	data := make([]byte, 1000) // 10 pages
	f.Write(data)
	f.Seal()
	stats.Reset()
	rd, _ := f.NewReader()
	buf := make([]byte, 7) // many tiny reads inside each page
	for {
		_, err := rd.Read(buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := stats.BlocksRead(); got != 10 {
		t.Errorf("BlocksRead = %d, want 10 (each page charged once)", got)
	}
}

// TestPageListOddReads writes content in odd-sized pieces and reads it
// back with odd read sizes, so writes and reads both cross the memory
// backend's page boundaries at every offset within a page.
func TestPageListOddReads(t *testing.T) {
	const bs = 64
	rng := rand.New(rand.NewSource(3))
	payload := make([]byte, 17*bs+29) // 17 full pages and a short one
	rng.Read(payload)
	for _, writeSize := range []int{1, 5, bs - 1, bs, bs + 3, len(payload)} {
		stats := &Stats{}
		f, _ := NewMem(bs, stats).Create()
		for p := payload; len(p) > 0; {
			n := min(writeSize, len(p))
			if _, err := f.Write(p[:n]); err != nil {
				t.Fatal(err)
			}
			p = p[n:]
		}
		if err := f.Seal(); err != nil {
			t.Fatal(err)
		}
		for _, readSize := range []int{1, 3, 7, bs - 1, bs + 1, 2*bs + 5, 1000} {
			stats.Reset()
			rd, _ := f.NewReader()
			var got []byte
			buf := make([]byte, readSize)
			for {
				n, err := rd.Read(buf)
				got = append(got, buf[:n]...)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("write %d/read %d: content differs", writeSize, readSize)
			}
			if r := stats.BlocksRead(); r != 18 {
				t.Errorf("write %d/read %d: BlocksRead = %d, want 18", writeSize, readSize, r)
			}
		}
		f.Release()
	}
}

func TestIndependentReaders(t *testing.T) {
	stats := &Stats{}
	store := NewMem(64, stats)
	f, _ := store.Create()
	f.Write([]byte("hello world, this is spill data"))
	f.Seal()
	r1, _ := f.NewReader()
	r2, _ := f.NewReader()
	b1, _ := io.ReadAll(r1)
	b2, _ := io.ReadAll(r2)
	if !bytes.Equal(b1, b2) {
		t.Errorf("independent readers disagree")
	}
}

func TestWriteAfterSeal(t *testing.T) {
	store := NewMem(64, nil)
	f, _ := store.Create()
	f.Seal()
	if _, err := f.Write([]byte("x")); err == nil {
		t.Errorf("write after Seal should fail")
	}
	if _, err := f.NewReader(); err != nil {
		t.Errorf("reader on sealed empty file should work: %v", err)
	}
}

func TestReaderBeforeSeal(t *testing.T) {
	store := NewMem(64, nil)
	f, _ := store.Create()
	if _, err := f.NewReader(); err == nil {
		t.Errorf("NewReader before Seal should fail")
	}
}

func TestStatsAccumulateAcrossFiles(t *testing.T) {
	stats := &Stats{}
	store := NewMem(128, stats)
	rng := rand.New(rand.NewSource(3))
	totalWritten := int64(0)
	for i := 0; i < 20; i++ {
		f, _ := store.Create()
		n := rng.Intn(1000) + 1
		f.Write(make([]byte, n))
		f.Seal()
		totalWritten += (int64(n) + 127) / 128
	}
	if got := stats.BlocksWritten(); got != totalWritten {
		t.Errorf("BlocksWritten = %d, want %d", got, totalWritten)
	}
	if stats.BytesWritten() == 0 || stats.BlocksRead() != 0 {
		t.Errorf("unexpected byte/read counters")
	}
	other := &Stats{}
	other.Add(stats)
	if other.TotalBlocks() != stats.TotalBlocks() {
		t.Errorf("Add/TotalBlocks mismatch")
	}
	stats.Reset()
	if stats.TotalBlocks() != 0 {
		t.Errorf("Reset failed")
	}
}
