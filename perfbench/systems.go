package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	windowdb "repro"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/storage"
)

// countingListener counts the bytes every accepted connection writes, so
// the benchmark can report network bytes per delivered row without any
// help from the program.
type countingListener struct {
	net.Listener
	written atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.written.Add(int64(n))
	return n, err
}

// server is an HTTP server on a loopback port owned by the benchmark.
type server struct {
	ln   *countingListener
	srv  *http.Server
	done chan struct{}
	url  string
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		ln:   &countingListener{Listener: ln},
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
		url:  "http://" + ln.Addr().String(),
	}
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(s.ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: server %s: %v\n", s.url, err)
		}
	}()
	return s, nil
}

// stop closes the listener and every connection and waits for Serve to
// return.
func (s *server) stop() {
	_ = s.srv.Close()
	<-s.done
}

// httpClient gives one client its own pool of at most conns connections.
func httpClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     30 * time.Second,
	}}
}

// system is one workload's running program: the surface its load drives
// plus the parts the traced run reads counters from.
type system struct {
	q       windowdb.Queryer // the surface the load drives
	ingest  ingestTarget     // the surface appends and SUBSCRIBE use
	cluster *shard.Cluster
	nodes   []*service.Service
	servers []*server
	clients []*http.Client
	tables  map[string]*storage.Table // registered base data, for the oracle
	mem     int                       // unit reorder memory M in bytes
}

func (s *system) close() {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	for _, srv := range s.servers {
		srv.stop()
	}
}

// netWritten is the bytes every benchmark-owned listener has sent.
func (s *system) netWritten() int64 {
	var n int64
	for _, srv := range s.servers {
		n += srv.ln.written.Load()
	}
	return n
}

// ingestTarget is the append surface of a workload: Engine and Cluster
// each have an Append with its own signature.
type ingestTarget interface {
	windowdb.Queryer
	appendRows(ctx context.Context, table string, rows []storage.Tuple) (watermark uint64, err error)
}

type engineTarget struct{ *windowdb.Engine }

func (e engineTarget) appendRows(_ context.Context, table string, rows []storage.Tuple) (uint64, error) {
	_, wm, err := e.Append(table, rows)
	return wm, err
}

type clusterTarget struct{ *shard.Cluster }

func (c clusterTarget) appendRows(ctx context.Context, table string, rows []storage.Tuple) (uint64, error) {
	resp, err := c.Append(ctx, table, rows)
	return resp.Watermark, err
}

// newEngineSystem registers the tables in one in-process engine and
// drives it directly (paper-spill).
func newEngineSystem(tables map[string]*storage.Table, mem int) *system {
	eng := windowdb.New(windowdb.Config{Scheme: windowdb.SchemeCSO, SortMemBytes: mem, Parallelism: 1})
	for name, t := range tables {
		eng.Register(name, t)
	}
	return &system{q: eng, ingest: engineTarget{eng}, tables: tables, mem: mem}
}

// newClusterSystem starts n shard nodes, each a service.Handler with shard
// routes on its own loopback listener, and a coordinator that reaches
// them through shard.NewHTTP transports; node-to-node shuffles use WCF1.
func newClusterSystem(ctx context.Context, tables map[string]*storage.Table, mem, n int) (*system, error) {
	cfg := windowdb.Config{Scheme: windowdb.SchemeCSO, SortMemBytes: mem, Parallelism: 1}
	s := &system{tables: tables, mem: mem}
	transports := make([]shard.Transport, n)
	for i := 0; i < n; i++ {
		hc := httpClient(4)
		svc := service.New(windowdb.New(cfg), service.Config{Slots: 1, ShardRoutes: true, PeerClient: hc})
		srv, err := serve(svc.Handler())
		if err != nil {
			s.close()
			return nil, err
		}
		s.nodes = append(s.nodes, svc)
		s.servers = append(s.servers, srv)
		s.clients = append(s.clients, hc)
		transports[i] = shard.NewHTTPCodec(srv.url, hc, service.CodecBinary)
	}
	c, err := shard.New(shard.Config{Engine: cfg}, transports)
	if err != nil {
		s.close()
		return nil, err
	}
	if err := c.RegisterSharded(ctx, "web_sales", tables["web_sales"], cItem); err != nil {
		s.close()
		return nil, fmt.Errorf("register: %w", err)
	}
	s.cluster, s.q, s.ingest = c, c, clusterTarget{c}
	return s, nil
}

// warm sends every statement of the mix once and checks nothing: it fills
// plan caches and shared subplans and finishes lazy set-up.
func warm(ctx context.Context, qr windowdb.Queryer, mix []queryDef) error {
	for _, q := range mix {
		if o := runQuery(ctx, qr, q, nil, time.Now()); o.err != nil {
			return o.err
		}
	}
	return nil
}
