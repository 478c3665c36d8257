GO ?= go
FUZZTIME ?= 10s

.PHONY: check build test race vet fuzz bench bench-all alloc-gate trace-demo apicheck api-snapshot scenarios results-check

# The full pre-merge gate: static checks, the race detector over every
# package, and a short pass over every fuzz target.
check: vet race fuzz

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# An unformatted file fails vet: gofmt -l prints nothing on a clean tree.
# So does a second assembly path: outside tests, internal/farm and bench/,
# only the shard engine builds a farm (core.NewShardDomain). So does a
# second epoch loop: outside tests and bench/, only sim.ParallelRunner
# defines RunEpochs (a new way to move shards' data is a sim.Transport).
# So does a third histogram path: outside tests and bench/, a registry
# histogram is resolved only by internal/metrics, the wire source's
# arrival lag and core.StatsView (a layer records into a Histogram it
# owns, and the view publishes it). So does a second Options -> engine
# translation: potemkind's cluster roles run on
# potemkin.Options.EngineConfig, so its non-test code builds no farm or
# gateway config of its own. So does a call of Honeyfarm.Internals
# outside tests and bench/: the facade is the way in (Stats, Totals,
# Snapshot, the WithProgress observer at the epoch barrier, Replay of any
# source, the worm epidemic's included), and ROADMAP item 1(l) moves
# bench/. So does a Domains()[0] outside tests, internal/core and
# bench/: a farm of any shard count is read through the engine's totals
# and hooks, never through its first shard. So does a
# recover() outside tests, bench/ and the engine's shard-panic capture
# (internal/core/parallel.go): panics are not control flow. So does a sync.Pool outside tests and
# bench/: the runtime keeps a pool's contents for a further collection,
# so every struct the simulator recycles (a packet into a shard rides
# its domain's envelopes) is parked on its owner's free.List, and the
# wire listener's batches ride the listener's channel. So does a
# generic pop function outside internal/free: free.List.Get is the
# one pop, so the recycling policy lives in one place. So does a
# netsim.TCPSyn or netsim.UDPDatagram in non-test internal/guest: every
# packet a guest originates is built in the instance's own storage
# (Instance.outgoing), so a send allocates nothing. So does a fused
# floating-point multiply-add in what arm64 compiles outside bench/: the
# spec lets a compiler fuse x*y+z, arm64's does and amd64's does not, so
# a fused site makes a digest depend on the host. An explicit float64(...)
# around the product rounds it and keeps the two apart. And so does a
# field of the facade's Options, WireOptions or Hooks, of
# core.ShardEngineConfig, gateway.Config, farm.Config, vmm.HostConfig,
# fault.Config, ingest.Config, ingest.ReplayOptions, cluster.Config,
# cluster.WorkerConfig or telescope.GenConfig that no non-test code sets
# (TestEveryConfigFieldIsSet, which resolves each setting to its field,
# so a forward from one config to another does not count for the first,
# and a function filling in defaults on a config it was handed does not
# count at all): a knob nothing turns is dead code or a constant. And so does a test or fuzz name in a -run or -fuzz pattern
# of this Makefile or of CI that no func Test or func Fuzz in the
# packages on the same line starts with (TestEveryRunPatternNamesATest):
# go test runs nothing for a dead name and passes, so a deleted, renamed
# or moved test would leave CI unseen. And
# so does an exported identifier or method, or
# an unexported function or method, in internal/, or an exported
# function, type or method of the root package, that no non-test code
# uses (TestEveryExportHasACaller): what only tests reach is deleted or
# moved into its package's export_test.go, or named with its reason in
# the test's allowlist. And so does internal/score importing
# internal/metrics: the scorecard reads the domains' totals
# (core.Totals), never the registry.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); [ -z "$$out" ] || { echo "vet: gofmt -l lists:"; echo "$$out"; exit 1; }
	@out=$$(git grep -n 'farm\.New(' -- '*.go' ':!*_test.go' ':!internal/farm' ':!bench' | grep -v '^internal/core/shardengine\.go:'); \
		[ -z "$$out" ] || { echo "vet: farm.New outside core.NewShardDomain (build on core.NewShardEngine):"; echo "$$out"; exit 1; }
	@out=$$(git grep -n 'func (.*) RunEpochs(' -- '*.go' ':!*_test.go' ':!bench' | grep -v '^internal/sim/parallel\.go:'); \
		[ -z "$$out" ] || { echo "vet: an epoch loop outside sim.ParallelRunner (implement sim.Transport instead):"; echo "$$out"; exit 1; }
	@out=$$(git grep -n '\.Hist(' -- '*.go' ':!*_test.go' ':!bench' | grep -v -e '^internal/metrics/' -e '^internal/ingest/source\.go:' -e '^internal/core/statsview\.go:'); \
		[ -z "$$out" ] || { echo "vet: a registry histogram outside metrics, the wire source and core.StatsView (record into a Histogram the layer owns):"; echo "$$out"; exit 1; }
	@out=$$(git grep -n -e 'farm\.DefaultConfig()' -e 'gateway\.DefaultConfig()' -- 'cmd/potemkind/*.go' ':!*_test.go'); \
		[ -z "$$out" ] || { echo "vet: potemkind builds an engine config by hand (use potemkin.Options.EngineConfig):"; echo "$$out"; exit 1; }
	@out=$$(git grep -n '\.Internals()' -- '*.go' ':!*_test.go' ':!bench'); \
		[ -z "$$out" ] || { echo "vet: Internals() outside bench/ (read the farm through the facade):"; echo "$$out"; exit 1; }
	@out=$$(git grep -n 'Domains()\[0\]' -- '*.go' ':!*_test.go' ':!internal/core' ':!bench'); \
		[ -z "$$out" ] || { echo "vet: Domains()[0] outside internal/core and bench/ (read every shard: Totals, OnInfected, OnEgress):"; echo "$$out"; exit 1; }
	@out=$$(git grep -n 'recover()' -- '*.go' ':!*_test.go' ':!bench' | grep -v '^internal/core/parallel\.go:'); \
		[ -z "$$out" ] || { echo "vet: recover() outside internal/core/parallel.go (return an error instead of panicking):"; echo "$$out"; exit 1; }
	@out=$$(git grep -n 'sync\.Pool' -- '*.go' ':!*_test.go' ':!bench'); \
		[ -z "$$out" ] || { echo "vet: sync.Pool (park the owner's spares on a free.List):"; echo "$$out"; exit 1; }
	@out=$$(git grep -n 'func pop\[' -- '*.go' ':!internal/free'); \
		[ -z "$$out" ] || { echo "vet: a generic pop outside internal/free (keep the free list on free.List):"; echo "$$out"; exit 1; }
	@out=$$(git grep -n -e 'netsim\.TCPSyn(' -e 'netsim\.UDPDatagram(' -- 'internal/guest/*.go' ':!*_test.go'); \
		[ -z "$$out" ] || { echo "vet: a guest packet built on the heap (build it in the instance's own storage, Instance.outgoing):"; echo "$$out"; exit 1; }
	@asm=$$(mktemp) && trap 'rm -f "$$asm"' EXIT && \
		{ GOARCH=arm64 $(GO) build -gcflags=-S $$($(GO) list ./... | grep -v '^potemkin/bench$$') > "$$asm" 2>&1 \
			|| { echo "vet: GOARCH=arm64 go build failed"; exit 1; }; } && \
		out=$$(grep -wE 'FMADDD|FMSUBD|FNMADDD|FNMSUBD' "$$asm" | grep -o '[^ (]*\.go:[0-9]*' | sort | uniq -c); \
		[ -z "$$out" ] || { echo "vet: arm64 fuses a multiply-add at (round the product with an explicit float64(...)):"; echo "$$out"; exit 1; }
	@out=$$($(GO) list -f '{{join .Imports "\n"}}' ./internal/score | grep -x 'potemkin/internal/metrics'); \
		[ -z "$$out" ] || { echo "vet: internal/score imports internal/metrics (score from core.Totals, not the registry)"; exit 1; }
	$(GO) test -count=1 -run '^TestEvery(ConfigFieldIsSet|ExportHasACaller|RunPatternNamesATest)$$' ./internal/core

race:
	$(GO) test -race ./...

# Each fuzz target needs its own invocation: `go test -fuzz` refuses to
# run more than one target per package. FuzzSpaceOps executes whole
# operation sequences (FuzzLaneOrder whole event schedules, twice), so
# minimizing each new input by the default 60 s would be the entire
# pass; they get an execution budget instead, and so do
# FuzzHistogramDecode and FuzzLoadProfile, whose JSON inputs minimize a
# byte at a time.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzParse$$ -fuzztime=$(FUZZTIME) ./internal/dns
	$(GO) test -run=^$$ -fuzz=FuzzResolverServe -fuzztime=$(FUZZTIME) ./internal/dns
	$(GO) test -run=^$$ -fuzz=FuzzDecap -fuzztime=$(FUZZTIME) ./internal/gre
	$(GO) test -run=^$$ -fuzz=FuzzReadCheckpoint -fuzztime=$(FUZZTIME) ./internal/vmm
	$(GO) test -run=^$$ -fuzz=FuzzEpochDone -fuzztime=$(FUZZTIME) ./internal/cluster
	$(GO) test -run=^$$ -fuzz=FuzzWorkerEpoch -fuzztime=$(FUZZTIME) ./internal/cluster
	$(GO) test -run=^$$ -fuzz=FuzzHistogramDecode -fuzztime=$(FUZZTIME) -fuzzminimizetime=20x ./internal/metrics
	$(GO) test -run=^$$ -fuzz=FuzzUnmarshal -fuzztime=$(FUZZTIME) ./internal/netsim
	$(GO) test -run=^$$ -fuzz=FuzzPcapRead -fuzztime=$(FUZZTIME) ./internal/ingest
	$(GO) test -run=^$$ -fuzz=FuzzSplitTrain -fuzztime=$(FUZZTIME) ./internal/ingest
	$(GO) test -run=^$$ -fuzz=FuzzAcceptTrain -fuzztime=$(FUZZTIME) ./internal/ingest
	$(GO) test -run=^$$ -fuzz=FuzzConnTable -fuzztime=$(FUZZTIME) ./internal/guest
	$(GO) test -run=^$$ -fuzz=FuzzIndexOps -fuzztime=$(FUZZTIME) ./internal/flatindex
	$(GO) test -run=^$$ -fuzz=FuzzSpaceOps -fuzztime=$(FUZZTIME) -fuzzminimizetime=20x ./internal/mem
	$(GO) test -run=^$$ -fuzz=FuzzLaneOrder -fuzztime=$(FUZZTIME) -fuzzminimizetime=20x ./internal/sim
	$(GO) test -run=^$$ -fuzz=FuzzLoadScenario -fuzztime=$(FUZZTIME) ./internal/scenario
	$(GO) test -run=^$$ -fuzz=FuzzLoadProfile -fuzztime=$(FUZZTIME) -fuzzminimizetime=20x .

# The core fast-path benchmarks (store alloc, CoW write, gateway scrub,
# flash clone, wire ingest, shard replay, kernel heap vs lane), written to
# BENCH_core.json as ns/op, B/op and allocs/op. This is the single
# documented way to regenerate BENCH_core.json; -require makes the run
# fail loudly if a rename or pattern typo silently drops a benchmark.
# EXPERIMENTS.md's E11 hot-path table is then rendered from it.
bench:
	( $(GO) test -run '^$$' -bench 'BenchmarkE1FlashClone$$|BenchmarkE2DeltaVirt$$|BenchmarkE4Gateway|BenchmarkAblation|BenchmarkE11WireIngest$$|BenchmarkShardReplay' -benchmem -benchtime 1s . ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkIngestDecap$$|BenchmarkWireSenderEncap$$' -benchmem -benchtime 1s ./internal/ingest ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkKernelHeap$$|BenchmarkKernelLane$$' -benchmem -benchtime 1s ./internal/sim ) \
		| $(GO) run ./cmd/benchjson -out BENCH_core.json \
			-description "Core fast-path benchmarks: store alloc, CoW write (E2 delta virtualization), gateway scrub, flash clone, wire ingest, shard replay, kernel heap vs lane." \
			-require BenchmarkE1FlashClone,BenchmarkE2DeltaVirt,BenchmarkAblationScrub,BenchmarkE11WireIngest,BenchmarkShardReplaySequential,BenchmarkShardReplayParallel,BenchmarkIngestDecap,BenchmarkWireSenderEncap,BenchmarkKernelHeap,BenchmarkKernelLane
	$(GO) test -count=1 -run '^TestExperimentsHotPathTable$$' ./cmd/benchjson -update

# The allocation gate: one measured pass over the shard-replay pair;
# fails if parallel allocs/op exceed sequential by more than 5%, or if
# sequential replay passes its B/op or allocs/op ceiling
# (scripts/alloc_gate.sh records both).
alloc-gate:
	$(GO) test -run '^$$' -bench 'BenchmarkShardReplay(Sequential|Parallel)$$' -benchmem -benchtime 1x -count 1 . \
		| bash scripts/alloc_gate.sh

bench-all:
	$(GO) test -bench . -benchmem ./...

# The public facade API is frozen in api.txt (the `go doc -all` output
# of the root package). apicheck fails when the surface drifts without
# the snapshot being regenerated — CI runs it, so API changes are
# always a reviewed diff. After an intentional change, run
# `make api-snapshot` and commit the result.
apicheck:
	@$(GO) doc -all . > /tmp/potemkin-api.txt
	@diff -u api.txt /tmp/potemkin-api.txt \
		|| { echo "apicheck: public API drifted from api.txt; run 'make api-snapshot' and commit"; exit 1; }
	@echo "apicheck: public API matches api.txt"

api-snapshot:
	$(GO) doc -all . > api.txt

# Run every shipped scenario family through all three execution modes
# (sequential, -parallel, cluster) and assert the effectiveness
# scorecards are byte-identical — the scenario engine's end-to-end gate.
scenarios:
	bash scripts/scenario_smoke.sh

# results/*.csv are what `benchtab -csv results all` writes at the
# default seed: regenerate them into a temp dir and diff, so a change
# that moves an experiment's numbers shows up as a reviewed diff of the
# committed series. e4_gateway.csv is wall-clock throughput and skipped.
results-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
		$(GO) run ./cmd/benchtab -csv "$$tmp" all > /dev/null && \
		diff -r -x e4_gateway.csv -x README.md results "$$tmp" \
		|| { echo "results-check: results/ differs from what benchtab regenerates; run 'go run ./cmd/benchtab -csv results all' and commit"; exit 1; }
	@echo "results-check: results/*.csv match benchtab"

# Produce a sample Chrome trace from the outbreak example: its span
# trace, rendered by inspect trace -chrome. Load outbreak.trace.json in
# Perfetto (ui.perfetto.dev) or chrome://tracing to see every binding's
# bind -> clone -> active -> recycle timeline.
trace-demo:
	$(GO) run ./examples/outbreak -trace-out outbreak.trace.jsonl
	$(GO) run ./cmd/inspect trace -chrome outbreak.trace.json outbreak.trace.jsonl
