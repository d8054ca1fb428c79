# Local targets mirroring .github/workflows/ci.yml.
GO ?= go

.PHONY: build test race bench bench-layers fmt fmt-check vet loc serve bench-service bench-json bench-baseline load-smoke cluster-smoke ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One iteration per benchmark: a smoke run, not a measurement. Use
# cmd/windbench for the full-scale sweeps.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# The row-format and sort layer benchmarks at a measuring length, three
# runs each: key comparison, an external sort with intermediate merge
# passes (it reports comparisons, passes and blocks per sort), the spill
# round trip and a two-step FS chain in memory and spilling.
LAYER_BENCHES = ^(BenchmarkCompareSeq|BenchmarkExternalSort|BenchmarkRunChain|BenchmarkSpillRoundTrip)$$
bench-layers:
	$(GO) test -run='^$$' -bench='$(LAYER_BENCHES)' -benchtime=5x -count=3 -benchmem \
		./internal/storage ./internal/xsort ./internal/spill ./internal/exec

fmt:
	gofmt -l -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needs to run on:" >&2; echo "$$out" >&2; exit 1; \
	fi

# perfbench is a nested module that ./... does not reach.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

# Go line counts of the root module, non-test and test, with the nested
# perfbench module left out: the size figure a refactor reports its net
# delta in (run on the parent commit and on the change, then subtract).
LOC_FIND = find . \( -path ./perfbench -o -path ./.git -o -path ./.bench_build \) -prune -o -name '*.go'
loc:
	@printf 'non-test %s\n' "$$($(LOC_FIND) ! -name '*_test.go' -print | xargs cat | wc -l)"
	@printf 'test     %s\n' "$$($(LOC_FIND) -name '*_test.go' -print | xargs cat | wc -l)"

# Run the HTTP query service (see cmd/windserve -h for knobs). Relocate
# with PORT=9090 or a full ADDR=host:9090, so two local instances — or a
# whole shard cluster — can coexist:
#
#	make serve PORT=8081 &
#	make serve PORT=8082 &
PORT ?=
ADDR ?= $(if $(PORT),:$(PORT),:8080)
serve:
	$(GO) run ./cmd/windserve -addr $(ADDR)

# One short pass of the closed-loop serving load harness.
bench-service:
	$(GO) run ./cmd/windbench -exp service -servdur 500ms -servrows 4000

# The perf-trajectory artifact CI uploads: parallel + sharded + shuffle +
# service (closed and open loop) + share + append sweeps serialized as
# JSON (see bench.Trajectory). Sharded and shuffle points carry the
# slowest repetition's rendered trace tree.
bench-json:
	$(GO) run ./cmd/windbench -exp parallel,sharded,shuffle,service,share,append -servdur 200ms -servrows 4000 -arrival 25 -slo 2s -json BENCH_pr8.json

# The committed bench-regression baseline: regenerate the gated scenario
# trajectories in place, then verify the fresh numbers pass their own
# gate. The flags must match the CI gate invocation exactly (Compare
# refuses mismatched workloads). Run on a quiet machine, eyeball the
# diff, and commit BENCH_baseline.json together with the change that
# moved the numbers (see README "Bench baseline").
BASELINE_EXPS := shuffle,append,service,share
BASELINE_FLAGS := -servdur 2s -servrows 4000 -arrival 25 -slo 2s
bench-baseline:
	$(GO) run ./cmd/windbench -exp $(BASELINE_EXPS) $(BASELINE_FLAGS) -json BENCH_baseline.json
	$(GO) run ./cmd/windbench -exp $(BASELINE_EXPS) $(BASELINE_FLAGS) -compare BENCH_baseline.json -tolerance 0.25

# Boot windserve on a scratch port, wait for /healthz, fire a handful of
# /query round trips and check /stats counted them. A serving smoke, not a
# measurement — `make bench-service` runs the real harness.
load-smoke: SMOKE_ADDR = 127.0.0.1:18091
load-smoke:
	@set -e; \
	$(GO) build -o /tmp/windserve-smoke ./cmd/windserve; \
	/tmp/windserve-smoke -addr $(SMOKE_ADDR) -rows 2000 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	ok=0; \
	for i in $$(seq 1 100); do \
		if curl -sf http://$(SMOKE_ADDR)/healthz >/dev/null 2>&1; then ok=1; break; fi; \
		sleep 0.1; \
	done; \
	[ "$$ok" = 1 ] || { echo "load-smoke: windserve never became healthy" >&2; exit 1; }; \
	for i in 1 2 3; do \
		curl -sf -X POST http://$(SMOKE_ADDR)/query \
			-d '{"sql":"SELECT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r FROM web_sales", "max_rows": 2}' \
			| grep -q '"row_count":2000' || { echo "load-smoke: bad /query response" >&2; exit 1; }; \
	done; \
	curl -sf 'http://$(SMOKE_ADDR)/query?q=SELECT%20empnum%20FROM%20emptab%20LIMIT%201' >/dev/null; \
	curl -sf http://$(SMOKE_ADDR)/stats | grep -q '"queries":4' || { echo "load-smoke: /stats miscounted" >&2; exit 1; }; \
	curl -s -o /dev/null -w '%{http_code}' http://$(SMOKE_ADDR)/query?q=nonsense | grep -q 400; \
	echo "load-smoke: OK"

# Boot two shard windserve processes plus two coordinators — one per wire
# codec (binary columnar frames, NDJSON) — and a reference single-engine
# instance on scratch ports; fire the sharded Q1 query over HTTP through
# each coordinator and assert its row count matches the single engine's
# and the chain scattered across both shards; then fire a key-divergent
# chain (two segments with different PARTITION BY) through each and assert
# it executed with route=shuffle — the per-segment distributed path whose
# re-shuffled rows move node-to-node over the /shard/shuffle data plane —
# with the same row count as the single engine. The two-process proof that
# scatter and shuffle both work over real sockets, in both codecs.
#
# The observability plane rides the same boot: both coordinators must
# serve the required Prometheus metric families on /metrics, and the JSON
# coordinator runs with -slowlog 1us so every query trips the slow-query
# log — one structured JSON line with the span tree must land on stderr.
#
# The ingestion plane rides the binary coordinator: open a SUBSCRIBE
# stream with plain curl (?subscribe=1, NDJSON), wait for the full initial
# result (header + one tagged row per web_sales row), POST /append one row
# — the coordinator hash-routes it to the owning shard and assigns a
# watermark past the registration generation — and require the delta row
# to surface on the open stream tagged "append" at exactly that watermark.
# The subscription must list in /debug/queries and die to a DELETE by id.
#
# Finally the live-query plane, on a dedicated cluster whose web_sales is
# SMOKE_KILL_ROWS deep — sized so a streamed result cannot hide in
# loopback socket buffers, which keeps a throttled client's shuffle query
# genuinely in flight: the query must show up in the coordinator's
# /debug/queries with a merged shard-node subtree, DELETE by ID must kill
# it, and windowdb_queries_aborted_total must tick. (The table push is
# row-tagged JSON, so this cluster boots in tens of seconds — hence its
# own longer health wait and its own small shard pair.)
cluster-smoke: SMOKE_KILL_ROWS = 120000
cluster-smoke: SMOKE_Q = SELECT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r FROM web_sales
cluster-smoke: SMOKE_DIVQ = SELECT ws_order_number, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS a, rank() OVER (PARTITION BY ws_warehouse_sk ORDER BY ws_sold_date_sk) AS b FROM web_sales
cluster-smoke:
	@set -e; \
	$(GO) build -o /tmp/windserve-csmoke ./cmd/windserve; \
	/tmp/windserve-csmoke -shardnode -addr 127.0.0.1:18094 & s1=$$!; \
	/tmp/windserve-csmoke -shardnode -addr 127.0.0.1:18095 & s2=$$!; \
	/tmp/windserve-csmoke -addr 127.0.0.1:18096 -rows 2000 & se=$$!; \
	co=; coj=; trap 'kill $$s1 $$s2 $$se $$co $$coj 2>/dev/null' EXIT; \
	/tmp/windserve-csmoke -shards 127.0.0.1:18094,127.0.0.1:18095 -addr 127.0.0.1:18093 -rows 2000 & co=$$!; \
	/tmp/windserve-csmoke -shards 127.0.0.1:18094,127.0.0.1:18095 -addr 127.0.0.1:18097 -rows 2000 -codec json -slowlog 1us 2>/tmp/windserve-csmoke-slow.log & coj=$$!; \
	for url in 127.0.0.1:18093 127.0.0.1:18096 127.0.0.1:18097; do \
		ok=0; \
		for i in $$(seq 1 150); do \
			if curl -sf http://$$url/healthz >/dev/null 2>&1; then ok=1; break; fi; \
			sleep 0.1; \
		done; \
		[ "$$ok" = 1 ] || { echo "cluster-smoke: $$url never became healthy" >&2; exit 1; }; \
	done; \
	body='{"sql":"$(SMOKE_Q)","max_rows":1}'; \
	divbody='{"sql":"$(SMOKE_DIVQ)","max_rows":1}'; \
	single=$$(curl -sf -X POST http://127.0.0.1:18096/query -d "$$body"); \
	sc=$$(printf '%s' "$$single" | grep -o '"row_count":[0-9]*'); \
	divsingle=$$(curl -sf -X POST http://127.0.0.1:18096/query -d "$$divbody"); \
	dsc=$$(printf '%s' "$$divsingle" | grep -o '"row_count":[0-9]*'); \
	for coord in 127.0.0.1:18093=binary 127.0.0.1:18097=json; do \
		url=$${coord%=*}; label=$${coord#*=}; \
		clustered=$$(curl -sf -X POST http://$$url/query -d "$$body"); \
		cc=$$(printf '%s' "$$clustered" | grep -o '"row_count":[0-9]*'); \
		[ -n "$$sc" ] && [ "$$sc" = "$$cc" ] || { echo "cluster-smoke($$label): $$cc != single-engine $$sc" >&2; exit 1; }; \
		printf '%s' "$$clustered" | grep -q '"route":"scatter"' || { echo "cluster-smoke($$label): not scattered" >&2; exit 1; }; \
		printf '%s' "$$clustered" | grep -q '"shards_used":2' || { echo "cluster-smoke($$label): wrong shard count" >&2; exit 1; }; \
		divclustered=$$(curl -sf -X POST http://$$url/query -d "$$divbody"); \
		dcc=$$(printf '%s' "$$divclustered" | grep -o '"row_count":[0-9]*'); \
		[ -n "$$dsc" ] && [ "$$dsc" = "$$dcc" ] || { echo "cluster-smoke($$label): divergent $$dcc != single-engine $$dsc" >&2; exit 1; }; \
		printf '%s' "$$divclustered" | grep -q '"route":"shuffle"' || { echo "cluster-smoke($$label): key-divergent chain not shuffled" >&2; exit 1; }; \
		curl -sf http://$$url/stats | grep -q '"shards":2' || { echo "cluster-smoke($$label): /stats missing shards" >&2; exit 1; }; \
		curl -sf http://$$url/stats | grep -q '"shuffle":1' || { echo "cluster-smoke($$label): /stats missing shuffle count" >&2; exit 1; }; \
		metrics=$$(curl -sf http://$$url/metrics); \
		for fam in windowdb_queries_total windowdb_route_queries_total windowdb_shard_queries_total windowdb_shards; do \
			printf '%s\n' "$$metrics" | grep -q "^$$fam" || { echo "cluster-smoke($$label): /metrics missing family $$fam" >&2; exit 1; }; \
		done; \
		printf '%s\n' "$$metrics" | grep -q '^windowdb_shard_queries_total{shard="1"}' || { echo "cluster-smoke($$label): /metrics missing per-shard labels" >&2; exit 1; }; \
		echo "cluster-smoke($$label): OK ($$cc rows scattered, $$dcc rows shuffled)"; \
	done; \
	curl -sf http://127.0.0.1:18096/metrics | grep -q '^windowdb_query_duration_seconds_bucket' || { echo "cluster-smoke: single engine /metrics missing latency histogram" >&2; exit 1; }; \
	grep -q '"kind":"slow_query"' /tmp/windserve-csmoke-slow.log || { echo "cluster-smoke: no slow-query log line from throttled coordinator" >&2; exit 1; }; \
	grep -q '"root":' /tmp/windserve-csmoke-slow.log || { echo "cluster-smoke: slow-query line carries no span tree" >&2; exit 1; }; \
	echo "cluster-smoke: /metrics families + slow-query log OK"; \
	sub=; trap 'kill $$s1 $$s2 $$se $$co $$coj $$sub 2>/dev/null || true' EXIT; \
	: > /tmp/windserve-csmoke-sub.log; \
	curl -sN -X POST 'http://127.0.0.1:18093/query?subscribe=1' -d '{"sql":"$(SMOKE_Q)"}' > /tmp/windserve-csmoke-sub.log & sub=$$!; \
	ok=0; \
	for i in $$(seq 1 300); do \
		if [ "$$(wc -l < /tmp/windserve-csmoke-sub.log)" -ge 2001 ]; then ok=1; break; fi; \
		sleep 0.1; \
	done; \
	[ "$$ok" = 1 ] || { echo "cluster-smoke: subscription never delivered its initial result" >&2; exit 1; }; \
	grep -q '{"s":"init"},{"i":"1"}\]' /tmp/windserve-csmoke-sub.log || { echo "cluster-smoke: init rows missing op/watermark tags" >&2; exit 1; }; \
	appendresp=$$(curl -sf -X POST http://127.0.0.1:18093/append -d '{"table":"web_sales","rows":[[{"i":"2450001"},{"i":"1"},{"i":"2450002"},{"i":"1"},{"i":"1"},{"i":"1"},{"i":"5"},{"f":1.5},{"f":2.5},{"f":2.0},{"i":"999999"},{"s":"x"}]]}'); \
	printf '%s' "$$appendresp" | grep -q '"rows_appended":1' || { echo "cluster-smoke: /append rejected the routed batch: $$appendresp" >&2; exit 1; }; \
	wm=$$(printf '%s' "$$appendresp" | grep -o '"watermark":[0-9]*' | cut -d: -f2); \
	[ -n "$$wm" ] && [ "$$wm" -gt 1 ] || { echo "cluster-smoke: append watermark $$wm not past the registration generation" >&2; exit 1; }; \
	ok=0; \
	for i in $$(seq 1 100); do \
		if grep -q '{"s":"append"},{"i":"'$$wm'"}\]' /tmp/windserve-csmoke-sub.log; then ok=1; break; fi; \
		sleep 0.1; \
	done; \
	[ "$$ok" = 1 ] || { echo "cluster-smoke: routed append never surfaced as a delta row at watermark $$wm" >&2; exit 1; }; \
	subq=$$(curl -sf http://127.0.0.1:18093/debug/queries); \
	printf '%s' "$$subq" | grep -q '"sql":"SUBSCRIBE' || { echo "cluster-smoke: live subscription absent from /debug/queries" >&2; exit 1; }; \
	sid=$$(printf '%s' "$$subq" | grep -o '"id":"[^"]*"' | head -1 | cut -d'"' -f4); \
	curl -sf -X DELETE http://127.0.0.1:18093/debug/queries/$$sid | grep -q '"killed":true' || { echo "cluster-smoke: DELETE did not kill the subscription" >&2; exit 1; }; \
	wait $$sub 2>/dev/null || true; sub=; \
	echo "cluster-smoke: append routed to shards, delta pushed at watermark $$wm, subscription killed by id OK"; \
	/tmp/windserve-csmoke -shardnode -addr 127.0.0.1:18098 & s3=$$!; \
	/tmp/windserve-csmoke -shardnode -addr 127.0.0.1:18099 & s4=$$!; \
	qp=; trap 'kill $$s1 $$s2 $$se $$co $$coj $$s3 $$s4 $$ck $$qp 2>/dev/null || true' EXIT; \
	/tmp/windserve-csmoke -shards 127.0.0.1:18098,127.0.0.1:18099 -addr 127.0.0.1:18100 -rows $(SMOKE_KILL_ROWS) & ck=$$!; \
	ok=0; \
	for i in $$(seq 1 900); do \
		if curl -sf http://127.0.0.1:18100/healthz >/dev/null 2>&1; then ok=1; break; fi; \
		sleep 0.1; \
	done; \
	[ "$$ok" = 1 ] || { echo "cluster-smoke: kill-test coordinator never became healthy" >&2; exit 1; }; \
	curl -sN --limit-rate 1k -X POST http://127.0.0.1:18100/query -d "{\"sql\":\"$(SMOKE_DIVQ)\",\"stream\":true}" >/dev/null 2>&1 & qp=$$!; \
	qjson=; \
	for i in $$(seq 1 300); do \
		qjson=$$(curl -sf http://127.0.0.1:18100/debug/queries); \
		if printf '%s' "$$qjson" | grep -q '"nodes":\['; then break; fi; \
		qjson=; sleep 0.1; \
	done; \
	[ -n "$$qjson" ] || { echo "cluster-smoke: in-flight query never showed a shard-node subtree in /debug/queries" >&2; exit 1; }; \
	qid=$$(printf '%s' "$$qjson" | grep -o '"id":"[^"]*"' | head -1 | cut -d'"' -f4); \
	[ -n "$$qid" ] || { echo "cluster-smoke: no query id in /debug/queries listing" >&2; exit 1; }; \
	curl -sf -X DELETE http://127.0.0.1:18100/debug/queries/$$qid | grep -q '"killed":true' || { echo "cluster-smoke: DELETE /debug/queries/$$qid did not kill" >&2; exit 1; }; \
	aborted=0; \
	for i in $$(seq 1 100); do \
		if curl -sf http://127.0.0.1:18100/metrics | grep -q '^windowdb_queries_aborted_total [1-9]'; then aborted=1; break; fi; \
		sleep 0.1; \
	done; \
	[ "$$aborted" = 1 ] || { echo "cluster-smoke: windowdb_queries_aborted_total never incremented after the kill" >&2; exit 1; }; \
	echo "cluster-smoke: live query listed with node subtree, killed by id, abort counted OK"

ci: build vet fmt-check race bench load-smoke cluster-smoke
