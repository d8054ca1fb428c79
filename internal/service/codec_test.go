package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
	"repro/internal/storage"
)

// TestCodecNegotiationFallback pins the negotiation rules at the raw HTTP
// level: binary only when the client names it (Accept or ?codec=binary),
// NDJSON for everything else — including Accept headers this server has
// never heard of — and a DisableBinary server answers NDJSON even to a
// binary-preferring client, which is how a mixed-version fleet degrades.
func TestCodecNegotiationFallback(t *testing.T) {
	svc := newTestService(t, Config{Slots: 2}, 200)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	oldSvc := newTestService(t, Config{Slots: 2, DisableBinary: true}, 200)
	oldSrv := httptest.NewServer(oldSvc.Handler())
	defer oldSrv.Close()

	cases := []struct {
		name   string
		base   string
		accept string
		query  string
		want   string
	}{
		{"binary accept", srv.URL, ContentTypeBinary + ", " + ContentTypeNDJSON, "", ContentTypeBinary},
		{"ndjson accept", srv.URL, ContentTypeNDJSON, "", ContentTypeNDJSON},
		{"unknown accept falls back", srv.URL, "application/vnd.fancy+columns", "?stream=1", ContentTypeNDJSON},
		{"no accept, stream param", srv.URL, "", "?stream=1", ContentTypeNDJSON},
		{"codec query param", srv.URL, "", "?stream=1&codec=binary", ContentTypeBinary},
		{"disabled server ignores binary accept", oldSrv.URL, ContentTypeBinary + ", " + ContentTypeNDJSON, "", ContentTypeNDJSON},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := strings.NewReader(`{"sql":"SELECT empnum, rank() OVER (ORDER BY salary DESC) AS r FROM emptab"}`)
			req, err := http.NewRequest(http.MethodPost, tc.base+"/query"+tc.query, body)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			if tc.accept != "" {
				req.Header.Set("Accept", tc.accept)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %s", resp.Status)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, tc.want) {
				t.Fatalf("Content-Type %q, want %q", ct, tc.want)
			}
			// Whatever the codec, the stream must decode: count the rows.
			sr := respReader(t, resp)
			n := 0
			for {
				if _, err := sr.next(); err == io.EOF {
					break
				} else if err != nil {
					t.Fatal(err)
				}
				n++
			}
			if n != 10 { // emptab is the paper's 10-row Example 1 relation
				t.Fatalf("decoded %d rows, want 10", n)
			}
		})
	}
}

// respReader wraps an already-issued streamed response in the matching
// decoder, the way openStream sniffs the response content type.
type sniffedStream struct {
	sr *StreamReader
}

func respReader(t *testing.T, resp *http.Response) *sniffedStream {
	t.Helper()
	sr, err := wrapResponse("test", resp)
	if err != nil {
		t.Fatal(err)
	}
	return &sniffedStream{sr: sr}
}

func (s *sniffedStream) next() (storage.Tuple, error) { return s.sr.Next() }

// failingSource yields a few rows and then dies: the deterministic way to
// observe a mid-stream error, which on the wire must arrive as an error
// trailer — the 200 header is long gone when the failure happens.
type failingSource struct {
	rows int
	n    int
	err  error
}

func (f *failingSource) Columns() []storage.Column {
	return []storage.Column{{Name: "n", Type: storage.TypeInt}}
}

func (f *failingSource) Next() (storage.Tuple, error) {
	if f.n >= f.rows {
		return nil, f.err
	}
	f.n++
	return storage.Tuple{storage.Int(int64(f.n))}, nil
}

func (f *failingSource) Close() error                    { return nil }
func (f *failingSource) Metrics() *windowdb.QueryMetrics { return nil }

// TestErrorTrailerSurvivesFraming: a server-side failure after rows have
// streamed surfaces through BOTH codecs as a trailer-borne RemoteError
// with the taxonomy kind — not a silent prefix, not a cut stream.
func TestErrorTrailerSurvivesFraming(t *testing.T) {
	for _, codec := range []WireCodec{CodecJSON, CodecBinary} {
		t.Run(string(codec), func(t *testing.T) {
			const good = 700 // past several flush strides and batches
			boom := fmt.Errorf("spill device gone")
			mux := http.NewServeMux()
			mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
				rows := windowdb.NewRows(&failingSource{rows: good, err: boom})
				WriteStream(r.Context(), w, rows, 0, codec)
			})
			srv := httptest.NewServer(mux)
			defer srv.Close()

			sr, err := OpenStream(context.Background(), srv.Client(), srv.URL+"/query", queryRequest{SQL: "x"}, codec)
			if err != nil {
				t.Fatal(err)
			}
			defer sr.Close()
			n := 0
			for {
				tup, err := sr.Next()
				if err != nil {
					var re *RemoteError
					if !errors.As(err, &re) {
						t.Fatalf("after %d rows: %v, want RemoteError", n, err)
					}
					if re.Kind != "internal" || !strings.Contains(re.Msg, "spill device gone") {
						t.Fatalf("remote error %+v", re)
					}
					break
				}
				if want := storage.Int(int64(n + 1)); !storage.Identical(tup[0], want) {
					t.Fatalf("row %d = %v", n, tup)
				}
				n++
			}
			if n != good {
				t.Fatalf("delivered %d rows before the error, want %d", n, good)
			}
			if sr.Trailer() != nil {
				t.Fatal("error stream must not expose a success trailer")
			}
		})
	}
}
