# forkwatch build/check entry points.
#
# `make test` is the tier-1 gate (what CI and the roadmap require).
# `make check` is the full pre-merge battery: gofmt + vet + the partition
# and docs lints + build + race tests + the benchmark module's own tests.
#
# Every command has a check that runs it: forksim (make matrix, make
# live-smoke), forkanalyze (make live-smoke), forkserve and forkload (make
# rpcsmoke), forknode (make nodesmoke), forkrace (its main_test.go, tier-1)
# and tools/partitionlint (make partitionlint).

GO ?= go

.PHONY: all build test race vet fmt partitionlint docs-check matrix check bench-selftest profile fuzz chaos chaos-disk chaos-replica rpcsmoke live-smoke nodesmoke clean

all: build

build:
	$(GO) build ./...

# Tier-1: the plain test suite.
test:
	$(GO) test ./...

# Race-enabled run of everything, including the chaos suite.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Formatting gate: fails listing the files gofmt would rewrite (bench/ is
# walked too; it is plain Go under the same tree).
fmt:
	@test -z "$$(gofmt -l .)" || { echo "gofmt needed:"; gofmt -l .; exit 1; }

# Partition-registry guard: no non-test core code may hard-wire the
# historical pair through "ETH"/"ETC" string literals (see
# tools/partitionlint for the allowlist).
partitionlint:
	$(GO) run ./tools/partitionlint

# Docs guard: README.md and DESIGN.md may name only repository paths and
# make targets that exist (scripts/docscheck.sh).
docs-check:
	sh scripts/docscheck.sh

# bench/ is its own Go module, so `go build ./... && go test ./...` at the
# root never compiles it: bench-selftest is what catches a rename in
# db/sim/serve that breaks the benchmark.
check: fmt vet partitionlint docs-check build race bench-selftest

# Scenario-matrix smoke: sweep the aligned/conflict/extreme grid crossed
# with the pool behaviour models under the race detector, writing
# matrix.csv (the artifact CI uploads). Short horizon: the sweep is a
# smoke test, not a calibration run.
MATRIX_DIR ?= matrix-out
MATRIX_DAYS ?= 12

matrix:
	mkdir -p $(MATRIX_DIR)
	$(GO) run -race ./cmd/forksim -matrix -days $(MATRIX_DAYS) -out $(MATRIX_DIR)

# Fuzz smoke: `go test -fuzz` takes exactly one target per invocation,
# so each decoder target runs on its own.
FUZZTIME ?= 30s

fuzz:
	$(GO) test -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/rlp/
	$(GO) test -fuzz '^FuzzDecodePrefix$$' -fuzztime $(FUZZTIME) ./internal/rlp/
	$(GO) test -fuzz '^FuzzEncodeRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/rlp/
	$(GO) test -fuzz '^FuzzDecodeTx$$' -fuzztime $(FUZZTIME) ./internal/chain/
	$(GO) test -fuzz '^FuzzDecodeHeader$$' -fuzztime $(FUZZTIME) ./internal/chain/
	$(GO) test -fuzz '^FuzzDecodeBlock$$' -fuzztime $(FUZZTIME) ./internal/chain/
	$(GO) test -fuzz '^FuzzDecodeRequest$$' -fuzztime $(FUZZTIME) ./internal/rpc/
	$(GO) test -fuzz '^FuzzDecodeRecord$$' -fuzztime $(FUZZTIME) ./internal/db/diskdb/
	$(GO) test -fuzz '^FuzzScanSegment$$' -fuzztime $(FUZZTIME) ./internal/db/diskdb/
	$(GO) test -fuzz '^FuzzAppendBlockRow$$' -fuzztime $(FUZZTIME) ./internal/export/

# Storage chaos battery under the race detector: fault-injection unit
# tests, WAL crash/recovery sweep and the figure byte-identity test.
chaos:
	$(GO) test -race -run 'Chaos|Crash|WAL|Fault|Torn|Recover' ./...

# Disk-backend chaos: the exhaustive crash-offset sweep on real segment
# files, the disk figure byte-identity run and the archive restart test,
# all under the race detector (uses the test tempdir for storage).
chaos-disk:
	$(GO) test -race -run 'TestDisk|TestChaosDiskFiguresByteIdentical|TestOpenServes|TestOpenOrBuild' ./internal/chain/ ./internal/serve/ .

# Replica-tier chaos under the race detector: primary + two replicas
# over a 20%-loss faultnet wire with injected storage faults, a replica
# crash/restart mid-run, a failover client checking every answer
# byte-for-byte against the primary, and a fork_liveEvents follower
# paging the replicas' feed across the crash. Failover stats and the
# follower's event/gap/duplicate/missed counts land in CHAOS_REPLICA_OUT
# (the artifact CI uploads).
CHAOS_REPLICA_OUT ?= chaos-replica.json

chaos-replica:
	CHAOS_REPLICA_OUT=$(abspath $(CHAOS_REPLICA_OUT)) $(GO) test -race -v -run 'TestChaosReplica' ./internal/serve/

# The benchmark that backs performance and simplicity claims is bench/
# (contract: BENCHMARK.json, workloads and metrics: bench/README.md).
# Evidence for a claim is two results files compared under the bounds:
#
#	bash bench/run.sh                         # writes bench/out/results.json
#	bash bench/run.sh -compare parent.json change.json
#
# bench-selftest runs that program's own unit tests and its -quick smoke.
bench-selftest:
	cd bench && $(GO) test ./...

# CPU/alloc profile of the long-horizon engine benchmark; inspect with
# `go tool pprof cpu.pprof` / `go tool pprof -alloc_objects mem.pprof`.
# heap.pprof is an end-of-run live-heap snapshot (inuse_space), the view
# that catches pools pinning memory rather than churning it.
# forksim/cpu.pprof is one whole `forksim -days 90 -out` run — simulation,
# figure rendering and the CSV export, the figures-90d op of bench/ — and
# forksim/heap.pprof the rows it retains; the CSVs themselves are dropped.
# archive/{cpu,heap}.pprof are dense-6h disk serve.Build runs, the
# archive-build-disk op of bench/ (BenchmarkArchiveBuildDense), and
# import/{cpu,heap}.pprof replica syncs and restarts on disk, the shape of
# replica-import-disk (internal/chain BenchmarkImportChainDisk).
PROFILE_DIR ?= profiles

profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -bench '^BenchmarkFigure2LongTermDynamics$$' -benchtime=3x -run '^$$' \
		-cpuprofile $(PROFILE_DIR)/cpu.pprof -memprofile $(PROFILE_DIR)/mem.pprof \
		-memprofilerate 1 .
	$(GO) test -bench '^BenchmarkFullFidelityDay$$' -benchtime=3x -run '^$$' \
		-memprofile $(PROFILE_DIR)/heap.pprof .
	$(GO) run ./cmd/forksim -days 90 -out $(PROFILE_DIR)/forksim/out -profile $(PROFILE_DIR)/forksim > /dev/null
	rm -rf $(PROFILE_DIR)/forksim/out
	mkdir -p $(PROFILE_DIR)/archive
	$(GO) test -bench '^BenchmarkArchiveBuildDense$$' -benchtime=5x -run '^$$' \
		-cpuprofile $(PROFILE_DIR)/archive/cpu.pprof -memprofile $(PROFILE_DIR)/archive/heap.pprof .
	mkdir -p $(PROFILE_DIR)/import
	$(GO) test -bench '^BenchmarkImportChainDisk$$' -benchtime=5x -run '^$$' \
		-cpuprofile $(PROFILE_DIR)/import/cpu.pprof -memprofile $(PROFILE_DIR)/import/heap.pprof ./internal/chain/
	@echo "profiles in $(PROFILE_DIR)/: cpu.pprof mem.pprof heap.pprof forksim/cpu.pprof forksim/heap.pprof archive/cpu.pprof archive/heap.pprof import/cpu.pprof import/heap.pprof"

# RPC smoke: boot forkserve, curl every method on both chain endpoints,
# check /debug/metrics and load it with forkload (what CI's rpc-smoke job
# runs).
rpcsmoke:
	GO="$(GO)" sh scripts/rpcsmoke.sh

# Live measurement plane smoke: boot forkserve -live, follow the event
# feed over RPC with forkanalyze -follow (given a dead first endpoint, so
# the follower's failover path runs), and require the streamed CSV
# tables byte-identical to a batch forksim export of the same scenario.
# The convergence diff (empty on success) lands in LIVESMOKE_OUT; CI
# uploads it as an artifact.
LIVESMOKE_OUT ?= live-smoke-out

live-smoke:
	GO="$(GO)" LIVESMOKE_OUT="$(LIVESMOKE_OUT)" sh scripts/livesmoke.sh

# Node smoke: three forknode processes over loopback TCP (an ETH miner, an
# ETH follower behind a latency/jitter fault layer, an ETC miner); a
# census crawl presenting ETC's fork id must reach the ETC node and be
# refused by the ETH ones, and the follower's saved chain must be a byte
# prefix of the miner's (what CI's node-smoke job runs).
nodesmoke:
	GO="$(GO)" sh scripts/nodesmoke.sh

clean:
	$(GO) clean ./...
