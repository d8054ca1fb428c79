// Command windserve is the HTTP/JSON front end of the query service: a
// windowdb.Engine wrapped in internal/service's prepared-plan cache,
// admission control and metrics, listening on three endpoints:
//
//	POST /query   {"sql": "SELECT ...", "max_rows": 100, "timeout_ms": 5000}
//	GET  /query?q=SELECT+...
//	GET  /stats   service counters (QPS, p50/p95/p99, cache, admission)
//	GET  /healthz liveness probe
//
// plus the /shard/* routes (query/register/table/distinct) that let a
// cluster coordinator use this process as a shard node.
//
// /query answers buffered JSON by default; "stream":true, ?stream=1 or
// `Accept: application/x-ndjson` switches to the chunked NDJSON row
// stream (service.Client and windsql -server consume it), whose
// admission slot is released the moment the client disconnects.
//
// Three roles, selected by flags:
//
//	windserve                          # single engine (the default)
//	windserve -shardnode               # shard node: starts with an empty
//	                                   # catalog, a coordinator pushes
//	                                   # partitions via /shard/register
//	windserve -shards host1,host2,...  # coordinator: shards the standard
//	                                   # tables across the named nodes and
//	                                   # serves scatter-gather /query,
//	                                   # aggregated /stats, fan-out /healthz
//
// A single-engine instance registers the same tables as windsql: emptab
// (Example 1 of the paper), web_sales and its sorted/grouped variants
// (-rows controls size), plus any -csv/-table pair. Example cluster:
//
//	windserve -shardnode -addr :8081 &
//	windserve -shardnode -addr :8082 &
//	windserve -shards 127.0.0.1:8081,127.0.0.1:8082 -addr :8080 &
//	curl -s localhost:8080/query -d '{"sql":"SELECT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r FROM web_sales", "max_rows": 3}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/cli"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/sql"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		scheme   = flag.String("scheme", "CSO", "optimization scheme: CSO|BFO|ORCL|PSQL")
		rows     = flag.Int("rows", 20_000, "generated web_sales rows")
		mem      = flag.Int("mem", 8<<20, "unit reorder memory M in bytes")
		budget   = flag.Int("budget", 0, "global reorder-memory budget in bytes (0 = 4 chains' worth)")
		slots    = flag.Int("slots", 0, "execution slots (0 = budget / per-chain memory); in -shards mode: coordinator gather slots (0 = 4)")
		queue    = flag.Int("queue", 64, "admission queue bound (-1 = no queue)")
		cache    = flag.Int("cachesize", 256, "plan cache entries")
		share    = flag.Bool("share", true, "cross-query shared-subplan cache: concurrent queries over one (table, WHERE, partition key) share one scan+reorder execution")
		subplans = flag.Int("subplans", 32, "shared-subplan cache entries (each pins one materialized segment)")
		timeout  = flag.Duration("timeout", 30*time.Second, "default per-query timeout (0 = none)")
		// Serving concurrency comes from the clients; per-query parallel
		// workers multiply each admitted chain's memory claim (the governor
		// accounts M × degree per slot), so they are opt-in here.
		parallelism = flag.Int("parallelism", 1, "per-query parallel worker degree (0 = GOMAXPROCS)")
		csvPath     = flag.String("csv", "", "optional CSV file to load")
		csvTable    = flag.String("table", "csv", "table name for the CSV file")
		shards      = flag.String("shards", "", "comma-separated shard node addresses: run as cluster coordinator")
		shardNode   = flag.Bool("shardnode", false, "run as a shard node: empty catalog, tables arrive via /shard/register")
		codec       = flag.String("codec", "binary", "wire codec for row streams: binary (columnar frames) or json (NDJSON; also disables binary responses, as an old node would)")
		slowlog     = flag.Duration("slowlog", 0, "slow-query log threshold: queries at or over it emit one JSON line (trace tree included) to stderr (0 = off)")
		slowlograte = flag.Int("slowlograte", 0, "slow-query log cap in lines per second; suppressed lines are counted onto the next emitted line (0 = default 10, negative = uncapped)")
		traceRing   = flag.Int("tracering", 128, "recent query traces kept for /debug/trace/{id} (negative = off)")
		pprofAddr   = flag.String("pprof", "", "optional private listen address for net/http/pprof (e.g. 127.0.0.1:6060); never mounted on the public mux")
	)
	flag.Parse()
	if *codec != string(service.CodecBinary) && *codec != string(service.CodecJSON) {
		log.Fatalf("windserve: -codec must be %q or %q, got %q", service.CodecBinary, service.CodecJSON, *codec)
	}

	engCfg := windowdb.Config{
		Scheme:       sql.Scheme(*scheme),
		SortMemBytes: *mem,
		Parallelism:  *parallelism,
	}

	startPprof(*pprofAddr)

	if *shards != "" {
		// Coordinator role. -slots bounds coordinator-side gather chains;
		// -budget and -queue govern the shard nodes' own admission and are
		// set where those processes start.
		serveCoordinator(coordinatorConfig{
			shardList: *shards, addr: *addr, eng: engCfg,
			rows: *rows, cacheEntries: *cache,
			gatherSlots: *slots, timeout: *timeout,
			csvPath: *csvPath, csvTable: *csvTable,
			codec:   service.WireCodec(*codec),
			slowlog: *slowlog, slowlogRate: *slowlograte, traceRing: *traceRing,
		})
		return
	}

	eng := windowdb.New(engCfg)
	if !*shardNode {
		cli.RegisterStandardTables(eng, *rows)
		if err := cli.RegisterCSV(eng, *csvPath, *csvTable); err != nil {
			log.Fatalf("windserve: %v", err)
		}
	}

	svc := service.New(eng, service.Config{
		MemoryBudgetBytes: *budget,
		Slots:             *slots,
		MaxQueue:          *queue,
		CacheEntries:      *cache,
		SubplanEntries:    *subplans,
		DisableSharing:    !*share,
		DefaultTimeout:    *timeout,
		// Only shard nodes expose the /shard/* surface: register/table
		// would let any client overwrite or dump tables on a public
		// single-engine server.
		ShardRoutes:      *shardNode,
		DisableBinary:    *codec == string(service.CodecJSON),
		TraceRing:        *traceRing,
		SlowLogThreshold: *slowlog,
		SlowLogRate:      *slowlograte,
	})

	role := "engine"
	if *shardNode {
		role = "shard node"
	}
	fmt.Printf("windserve: %s listening on %s (%d slots, queue %d, cache %d, tables %v)\n",
		role, *addr, svc.Slots(), *queue, *cache, eng.Tables())
	serve(*addr, svc.Handler())
}

// coordinatorConfig carries the coordinator role's flag values.
type coordinatorConfig struct {
	shardList, addr    string
	eng                windowdb.Config
	rows, cacheEntries int
	gatherSlots        int
	timeout            time.Duration
	csvPath, csvTable  string
	codec              service.WireCodec
	slowlog            time.Duration
	slowlogRate        int
	traceRing          int
}

// serveCoordinator forms a cluster over the named shard nodes, distributes
// the standard tables, and serves the coordinator front end.
func serveCoordinator(cfg coordinatorConfig) {
	var transports []shard.Transport
	var addrs []string
	for _, a := range strings.Split(cfg.shardList, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		addrs = append(addrs, a)
		transports = append(transports, shard.NewHTTPCodec(a, nil, cfg.codec))
	}
	cluster, err := shard.New(shard.Config{
		Engine:           cfg.eng,
		CacheEntries:     cfg.cacheEntries,
		GatherSlots:      cfg.gatherSlots,
		DefaultTimeout:   cfg.timeout,
		TraceRing:        cfg.traceRing,
		SlowLogThreshold: cfg.slowlog,
		SlowLogRate:      cfg.slowlogRate,
	}, transports)
	if err != nil {
		log.Fatalf("windserve: %v", err)
	}

	// Wait for every node before pushing partitions: cluster boots race
	// their shards' listeners.
	waitCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for {
		if err = cluster.Health(waitCtx); err == nil {
			break
		}
		select {
		case <-waitCtx.Done():
			log.Fatalf("windserve: shards never became healthy: %v", err)
		case <-time.After(100 * time.Millisecond):
		}
	}

	ctx := context.Background()
	if err := cli.RegisterStandardTablesSharded(ctx, cluster, cfg.rows); err != nil {
		log.Fatalf("windserve: sharding tables: %v", err)
	}
	if err := cli.RegisterCSVReplicated(ctx, cluster, cfg.csvPath, cfg.csvTable); err != nil {
		log.Fatalf("windserve: %v", err)
	}

	fmt.Printf("windserve: coordinator listening on %s (%d shards: %s)\n",
		cfg.addr, cluster.Shards(), strings.Join(addrs, ", "))
	serve(cfg.addr, cluster.Handler())
}

// startPprof exposes net/http/pprof on its own private listener when
// -pprof names an address. Deliberately a separate mux and server: the
// profiling surface never mounts on the public (or cluster-internal)
// handler, so exposing the query port exposes no heap dumps.
func startPprof(addr string) {
	if addr == "" {
		return
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() {
		if err := http.ListenAndServe(addr, mux); err != nil {
			log.Printf("windserve: pprof listener: %v", err)
		}
	}()
	fmt.Printf("windserve: pprof on http://%s/debug/pprof/\n", addr)
}

// Connection timeouts for the query server. There is deliberately no
// ReadTimeout or WriteTimeout: request bodies (appends, shuffle
// deliveries) and responses (row streams, subscriptions) stream for as
// long as the query runs.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// serve runs the HTTP server with graceful shutdown on SIGINT/SIGTERM.
func serve(addr string, h http.Handler) {
	srv := &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
	}()
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("windserve: %v", err)
	}
}
