# Standard entry points; `make ci` is what a pre-merge check should run.
# The race detector matters here: the training/evaluation layer fans work
# out across goroutines (internal/parallel) and the serving layer hot-swaps
# models under live traffic.

GO ?= go

.PHONY: all build vet fmt-check test race alloc-check fuzz-smoke repro-check bench bench-smoke loadgen-smoke chaos-smoke soak-smoke pack-smoke fleet-smoke ci clean

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt must have nothing to say.
fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "gofmt -l reports:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# Full suite under the race detector. Slower (the detector costs ~5-10x),
# but it is the only gate that exercises the concurrent feature cache,
# parallel forest training and the serving hot-swap path for real races —
# and the change-point kernel's pooled scratch: TestDetectConcurrentMatchesOracle
# and, beside it, TestReachesMatchesExactScan, TestRunningStatisticWithinBound
# and TestBandIsExercised (internal/ml/cpd), whose shapes are parallel
# subtests drawing kernels, running sums included, from the one pool.
race:
	$(GO) test -race ./...

# The allocation gates: every test whose name holds "Alloc", run without
# -race — each skips itself under the detector or is built !race, so
# `race` runs none of them. The packages are the ones under ./internal/...
# that hold a gate, named so that smoke-test fails when one of them answers
# "[no tests to run]" (a package without a gate answers it too): a renamed
# gate fails instead of dropping out. A new gate in another package adds
# its package here.
ALLOC_PKGS = ./internal/cloudsim ./internal/core ./internal/faults ./internal/floatsort \
	./internal/gateway ./internal/httpx ./internal/metrics ./internal/ml/cpd ./internal/ml/forest \
	./internal/parallel ./internal/serving ./internal/telemetry ./internal/text ./internal/topology

alloc-check:
	$(call smoke-test,-run 'Alloc' -count 1 $(ALLOC_PKGS))

# Fuzz smoke: ten seconds each of the change-point kernel's differential
# fuzz target, of the ordering kernel's (SummarizeInPlace against the stdlib
# sort and the old reductions), of the forest's one snapshot decoder
# (the binary section both Scout snapshot envelopes carry) and of its
# split kernel (small training sets grown
# against the seed kernel and at two worker counts), of the extractors'
# match finder (against FindAllString, for any pattern regexp compiles, and
# Extract with that pattern against the join-based oracle), of
# the tokenizer (the substring cut against the rune-by-rune builder it
# replaced, over invalid UTF-8 and case mappings that change byte length),
# of an incident's text read in two parts (title, then body, tokenized and
# counted as their join with a line break is),
# of the configuration parser (never panics; what it accepts builds a
# FeatureBuilder that extracts as the old and join-based paths do), of the gateway's
# Retry-After reader
# (a hint in [0, max], saturating, against math/big), of the scoutpack
# (SCPK) and store-file (SDP1) decoders (never panic, checksums re-sealed so
# mutations get past them; what they accept re-encodes to a fixed point), of
# the strict request decoder (what it accepts json.Unmarshal accepts alike;
# over the cap is 413 or the 400 of the bytes before it), of the predict
# codec the daemons run (for any body, either shape, over the cap included,
# the answer and value Decode gives, and json.Marshal of what it accepts
# taken whole by the lexer) and of loadgen's Prometheus scrape parser
# (reads back every non-bucket sample the registry writes) on top of their
# committed corpora (which plain `go test` replays, and whose pack inputs
# a TestFuzzCorpusReaches in each package pins to the check each one's file
# name names). A crasher lands in the package's testdata/fuzz and fails
# the run. The decoder seeds are kilobytes
# long, so minimising each new input is capped at a second to keep the ten
# seconds for mutation; the training target finds new inputs every few
# executions, so its minimisation is capped at 100 of them.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzBestSplit -fuzztime 10s ./internal/ml/cpd
	$(GO) test -run '^$$' -fuzz '^FuzzSummarize$$' -fuzztime 10s ./internal/metrics
	$(GO) test -run '^$$' -fuzz '^FuzzForestFromBinary$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/ml/forest
	$(GO) test -run '^$$' -fuzz '^FuzzForestTrain$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/ml/forest
	$(GO) test -run '^$$' -fuzz '^FuzzFindAll$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzParseConfig$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzTokenize$$' -fuzztime 10s ./internal/text
	$(GO) test -run '^$$' -fuzz '^FuzzSplitText$$' -fuzztime 10s ./internal/text
	$(GO) test -run '^$$' -fuzz '^FuzzParseRetryAfter$$' -fuzztime 10s ./internal/gateway
	$(GO) test -run '^$$' -fuzz '^FuzzScoutpack$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzPackFile$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/serving
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeStrict$$' -fuzztime 10s ./internal/httpx
	$(GO) test -run '^$$' -fuzz '^FuzzPredictCodec$$' -fuzztime 10s ./internal/httpx
	$(GO) test -run '^$$' -fuzz '^FuzzParseProm$$' -fuzztime 10s ./cmd/loadgen

# The paper's Table 1 and §7.1 headline, regenerated at one worker and at
# four and compared with the one committed golden — a table must not depend
# on how its work was fanned out; only the timing in each banner is
# stripped. First slice of the paper-tables gate (the full -exp all gate is
# a ROADMAP item).
# Then the retraining replays of Figures 8 and 10 on a short world (90 days,
# 8 incidents a day, ~6 s): the one gate on Replay, which scores every chunk
# through Scout.PredictCached over the lab's shared FeatureCache. Its golden
# was generated from the tree before the replay path joined the served
# pipeline (PR 25), so it pins that join to the old answers.
# Last, the Scout Master's deployment simulations of Figures 15 and 16 on
# the default world and on a 60-day one (~2 s for both): the one gate on
# the routing decision the simulation shares with Master.Route. Its golden
# was generated from the tree before the simulation lost its own winner
# loop, so it pins that join to the old answers too.
repro-check:
	@for w in 1 4; do \
		echo "repro -exp table1,headline -workers $$w"; \
		$(GO) run ./cmd/repro -exp table1,headline -workers $$w \
			| sed -E 's/ \[[^] ]*\] ====$$/ ====/' \
			| diff testdata/repro_table1_headline.golden - || exit 1; \
	done
	$(GO) run ./cmd/repro -exp fig8,fig10 -days 90 -rate 8 \
		| sed -E 's/ \[[^] ]*\] ====$$/ ====/' \
		| diff testdata/repro_replay_fig8_fig10.golden -
	@echo "repro -exp fig15,fig16 (default world, then -days 60 -rate 8)"
	@{ echo "repro -exp fig15,fig16"; $(GO) run ./cmd/repro -exp fig15,fig16 || exit 1; \
		echo "repro -exp fig15,fig16 -days 60 -rate 8"; \
		$(GO) run ./cmd/repro -exp fig15,fig16 -days 60 -rate 8 || exit 1; } \
		| sed -E 's/ \[[^] ]*\] ====$$/ ====/' \
		| diff testdata/repro_master_fig15_fig16.golden -

# The repository's benchmark (BENCHMARK.json): every scoutbench workload,
# end-to-end metrics and the per-layer budget, as a table. For one
# workload, or for comparing two commits, see cmd/scoutbench/README.md.
bench:
	bash cmd/scoutbench/run.sh

# A smoke target selects its tests by -run regex, and `go test -run` that
# matches nothing exits 0 with "[no tests to run]" — a moved or renamed
# test would silently drop out of `make ci`. smoke-test runs `go test` with
# the given arguments and fails on that line as well as on a test failure.
define smoke-test
	@out=$$($(GO) test $(1) 2>&1); status=$$?; echo "$$out"; \
	if [ $$status -ne 0 ]; then exit $$status; fi; \
	if echo "$$out" | grep -q 'no tests to run'; then \
		echo "smoke: go test $(1): the -run regex selects no test"; exit 1; \
	fi
endef

# -bench has the same hole: a regex that selects no benchmark exits 0 and
# prints no result line. smoke-bench runs one iteration of what the regex
# selects in one package and fails unless a "Benchmark..." line came back.
define smoke-bench
	@out=$$($(GO) test -run '^$$' -bench $(1) -benchtime 1x $(2) 2>&1); status=$$?; echo "$$out"; \
	if [ $$status -ne 0 ]; then exit $$status; fi; \
	if ! echo "$$out" | grep -q '^Benchmark'; then \
		echo "smoke: go test -bench $(1) $(2): the -bench regex selects no benchmark"; exit 1; \
	fi
endef

# Bench smoke: one iteration of the split-kernel benchmark and of a
# retrain cycle's training, of the change-point kernel's benchmark (every
# size and permutation count, and the tie-heavy windows whose candidates
# the exact kernel has to settle), of the in-process serving benchmark, of
# the ordering kernel's (every shape and size, both sides) and of the
# Scout's own two stages (text in → Extraction, vector in → explanation), no
# output files — catches bitrot in the benchmark code itself without timing
# anything.
bench-smoke:
	$(call smoke-bench,'^Benchmark(BestSplit|TrainWindow)$$',.)
	$(call smoke-bench,'^BenchmarkDetect$$',./internal/ml/cpd)
	$(call smoke-bench,'^BenchmarkServingPredict$$',./internal/serving)
	$(call smoke-bench,'^BenchmarkSummarize$$',./internal/metrics)
	$(call smoke-bench,'^Benchmark(Extract|Explain)$$',./internal/core)

# Loadgen smoke: runs the load generator's request/report path in both
# modes against an in-process httptest server (no sockets, no timing) —
# catches drift between loadgen's payloads and the serving API.
loadgen-smoke:
	$(call smoke-test,-run 'TestLoadgenSmoke' -count 1 ./cmd/loadgen)

# Chaos smoke: bounded fault-injection pass under the race detector. The
# loadgen chaos rotation (malformed JSON, oversized bodies, mid-body
# disconnects) must draw zero 5xx, and the serving chaos tests (50%
# monitoring blackout, shedding, deadlines — the inline guard's watchdog
# racing its handler 10⁴ times — panic recovery, deterministic degraded
# answers) must hold with the detector watching — as must the
# shared HTTP spine's own panic accounting (internal/httpx) and the
# per-dataset breaker's probe slot and lock-free healthy path, looped
# (internal/faults).
chaos-smoke:
	$(call smoke-test,-race -run 'TestLoadgenChaos' -count 1 ./cmd/loadgen)
	$(call smoke-test,-race -run 'TestChaos|TestShedding|TestPanicRecovery|TestRequestDeadline|TestDeadline|TestNoGoroutineUnderServerHandler|TestDegradationOverHTTP' -count 1 ./internal/serving)
	$(call smoke-test,-race -run 'TestPanicIsCountedAndAnswered|TestAbortHandlerIsReRaised' -count 1 ./internal/httpx)
	$(call smoke-test,-race -run 'TestBreakerHalfOpenSingleProbeSlot|TestBreakerFailedProbeReleasesSlot|TestBreakerAppendSeriesConcurrent|TestBreakerQuietPathConcurrent' -count 20 ./internal/faults)

# Soak smoke: a ~2s sustained run against an in-process server with
# sub-second /metrics scrapes — proves the soak loop, the Prometheus
# scrape parser and the SLO verdict math against the live exposition
# format, without booting a real daemon.
soak-smoke:
	$(call smoke-test,-run 'TestLoadgenSoak|TestParseProm' -count 1 ./cmd/loadgen)

# Pack/inspect smoke: scoutctl train publishes a tiny model into an empty
# -store, a scoutd boots on it, and scoutctl inspect is driven at the
# published file — the CLI surface of the DESIGN.md §12 binary model
# format, exercised end to end. The summary must report scoutpack
# version 2, and inspect must refuse — exit non-zero, naming the checksum
# — a copy with one byte flipped and a copy with its last byte cut.
# The README's quick-start `scoutctl predict` then runs against the same
# scoutd: it must exit 0 and print a "verdict" field.
# Then the store itself is damaged: the scoutd stops, a byte of
# model-000001.pack flips, and a second scoutd boots on the same -store.
# It must log the file's quarantine by name with the checksum reason, set
# it aside as model-000001.pack.quarantined, and — with nothing left to
# serve — exit non-zero naming scoutctl train. A second train must then
# publish model-000002.pack, never reusing the quarantined number, and a
# third scoutd serve model_version 2.
pack-smoke:
	$(GO) build -o /tmp/scouts-pack-scoutd ./cmd/scoutd
	$(GO) build -o /tmp/scouts-pack-scoutctl ./cmd/scoutctl
	@set -e; dir=$$(mktemp -d); pid=; pid3=; \
	trap 'kill $$pid $$pid3 2>/dev/null || true; rm -rf $$dir' EXIT; \
	/tmp/scouts-pack-scoutctl train -days 5 -rate 4 -store $$dir; \
	/tmp/scouts-pack-scoutd -addr 127.0.0.1:8094 -days 5 -rate 4 -store $$dir & pid=$$!; \
	for i in $$(seq 1 120); do \
		curl -fsS http://127.0.0.1:8094/v1/health >/dev/null 2>&1 && break; \
		sleep 1; \
	done; \
	pack=$$dir/model-000001.pack; \
	/tmp/scouts-pack-scoutctl inspect $$pack | tee $$dir/inspect.json; \
	if ! grep -A1 '"scoutpack": {' $$dir/inspect.json | grep -q '"version": 2,'; then \
		echo "pack-smoke: inspect does not report scoutpack version 2"; exit 1; \
	fi; \
	size=$$(wc -c < $$pack); mid=$$((size / 2)); \
	byte=$$(od -An -tu1 -j $$mid -N1 $$pack | tr -d ' '); \
	cp $$pack $$dir/flipped.pack; \
	printf "$$(printf '\\%03o' $$((byte ^ 1)))" | dd of=$$dir/flipped.pack bs=1 seek=$$mid conv=notrunc 2>/dev/null; \
	head -c $$((size - 1)) $$pack > $$dir/cut.pack; \
	for bad in flipped cut; do \
		if out=$$(/tmp/scouts-pack-scoutctl inspect $$dir/$$bad.pack 2>&1); then \
			echo "pack-smoke: inspect accepted the $$bad copy"; exit 1; \
		fi; \
		case "$$out" in \
		*checksum*) echo "pack-smoke: inspect refused the $$bad copy: $$out";; \
		*) echo "pack-smoke: inspect refused the $$bad copy without naming the checksum: $$out"; exit 1;; \
		esac; \
	done; \
	if ! out=$$(/tmp/scouts-pack-scoutctl -addr http://127.0.0.1:8094 predict \
		-title "Packet corruption alarms on tor2.c3.dc1" \
		-body "FCS errors above threshold in cluster c3.dc1" -time 2000 2>&1); then \
		echo "pack-smoke: the README's scoutctl predict failed: $$out"; exit 1; \
	fi; \
	case "$$out" in \
	*'"verdict"'*) echo "pack-smoke: the README's scoutctl predict answers $$out";; \
	*) echo "pack-smoke: the README's scoutctl predict printed no verdict: $$out"; exit 1;; \
	esac; \
	kill -TERM $$pid; wait $$pid || true; \
	printf "$$(printf '\\%03o' $$((byte ^ 1)))" | dd of=$$pack bs=1 seek=$$mid conv=notrunc 2>/dev/null; \
	if timeout 60 /tmp/scouts-pack-scoutd -addr 127.0.0.1:8094 -days 5 -rate 4 -store $$dir 2>$$dir/reboot.log; then \
		cat $$dir/reboot.log; echo "pack-smoke: scoutd exited 0 on a store with nothing servable"; exit 1; \
	fi; \
	cat $$dir/reboot.log; \
	if ! grep -q 'scoutctl train' $$dir/reboot.log; then \
		echo "pack-smoke: the reboot on a damaged store did not exit naming scoutctl train"; exit 1; \
	fi; \
	if ! grep 'model-000001\.pack' $$dir/reboot.log | grep -q checksum; then \
		echo "pack-smoke: the reboot did not log model-000001.pack's quarantine with the checksum reason"; exit 1; \
	fi; \
	if [ ! -f $$dir/model-000001.pack.quarantined ]; then \
		echo "pack-smoke: the reboot left no model-000001.pack.quarantined in the store: $$(ls $$dir)"; exit 1; \
	fi; \
	/tmp/scouts-pack-scoutctl train -days 5 -rate 4 -store $$dir; \
	if [ ! -f $$dir/model-000002.pack ]; then \
		echo "pack-smoke: the second train left no model-000002.pack in the store: $$(ls $$dir)"; exit 1; \
	fi; \
	/tmp/scouts-pack-scoutd -addr 127.0.0.1:8094 -days 5 -rate 4 -store $$dir & pid3=$$!; \
	for i in $$(seq 1 120); do \
		curl -fsS http://127.0.0.1:8094/v1/health >/dev/null 2>&1 && break; \
		sleep 1; \
	done; \
	model=$$(curl -fsS http://127.0.0.1:8094/v1/model); \
	case "$$model" in \
	*'"model_version":2'*) echo "pack-smoke: the third scoutd serves $$model";; \
	*) echo "pack-smoke: the third scoutd serves $$model, want model_version 2"; exit 1;; \
	esac

# Fleet smoke: the resilient-gateway kill test with real processes. The
# in-process halves (loadgen -fleet plumbing, the gateway's own kill
# test and the hedge race's rules, panics included, each looped so a
# timer firing as the primary settles is hit) run first under the race
# detector. scoutgw must then refuse two fleets it could not serve — two
# teams, and a replica URL with no scheme — by exiting non-zero before it
# listens. Then scoutctl train publishes one scoutpack, three scoutd
# replicas boot together on that -store, scoutgw fronts them, and
# loadgen -fleet SIGTERMs the middle replica two seconds into a
# six-second burst. The
# SLO is zero failed non-shed requests: every client answer is a 200, a
# 4xx, or an honored 429 — never a transport error or 5xx — with the
# gateway's retries/hedges/breaker trips reported in FLEET_SMOKE.json.
fleet-smoke:
	$(call smoke-test,-race -run 'TestDriveHonors429|TestDriveSheds|TestJudgeFleet|TestLoadgenFleet' -count 1 ./cmd/loadgen)
	$(call smoke-test,-race -run 'TestFleetSurvivesReplicaKillMidBurst|TestHedge|TestAttemptPanic|TestNoGoroutineUnderGatewayHandler' -count 1 ./internal/gateway)
	$(GO) build -o /tmp/scouts-fleet-scoutctl ./cmd/scoutctl
	$(GO) build -o /tmp/scouts-fleet-scoutd ./cmd/scoutd
	$(GO) build -o /tmp/scouts-fleet-scoutgw ./cmd/scoutgw
	@for bad in '-replica a=phynet=http://127.0.0.1:8105 -replica b=storage=http://127.0.0.1:8106' \
		'-replica a=phynet=localhost:8105'; do \
		if out=$$(timeout 10 /tmp/scouts-fleet-scoutgw -addr 127.0.0.1:8107 $$bad 2>&1); then \
			echo "fleet-smoke: scoutgw accepted $$bad"; exit 1; \
		fi; \
		case "$$out" in *"listening on"*) echo "fleet-smoke: scoutgw listened with $$bad: $$out"; exit 1;; esac; \
		echo "fleet-smoke: scoutgw refused $$bad: $$out"; \
	done
	$(GO) build -o /tmp/scouts-fleet-loadgen ./cmd/loadgen
	@set -e; dir=$$(mktemp -d); \
	trap 'kill $$p1 $$p2 $$p3 $$pg 2>/dev/null || true; rm -rf $$dir' EXIT; \
	/tmp/scouts-fleet-scoutctl train -days 5 -rate 4 -store $$dir; \
	/tmp/scouts-fleet-scoutd -addr 127.0.0.1:8101 -days 5 -rate 4 -store $$dir & p1=$$!; \
	/tmp/scouts-fleet-scoutd -addr 127.0.0.1:8102 -days 5 -rate 4 -store $$dir & p2=$$!; \
	/tmp/scouts-fleet-scoutd -addr 127.0.0.1:8103 -days 5 -rate 4 -store $$dir & p3=$$!; \
	for port in 8101 8102 8103; do \
		for i in $$(seq 1 120); do \
			curl -fsS http://127.0.0.1:$$port/v1/health >/dev/null 2>&1 && break; \
			sleep 1; \
		done; \
	done; \
	/tmp/scouts-fleet-scoutgw -addr 127.0.0.1:8104 \
		-replica r1=phynet=http://127.0.0.1:8101 \
		-replica r2=phynet=http://127.0.0.1:8102 \
		-replica r3=phynet=http://127.0.0.1:8103 & pg=$$!; \
	for i in $$(seq 1 120); do \
		curl -fsS http://127.0.0.1:8104/v1/health >/dev/null 2>&1 && break; \
		sleep 1; \
	done; \
	/tmp/scouts-fleet-loadgen -url http://127.0.0.1:8104 -fleet -seed 7 -days 5 -rate 4 \
		-c 4 -duration 6s -kill-pid $$p2 -kill-after 2s -out FLEET_SMOKE.json
	@cat FLEET_SMOKE.json

ci: vet fmt-check build race alloc-check fuzz-smoke repro-check bench-smoke loadgen-smoke chaos-smoke soak-smoke pack-smoke fleet-smoke

clean:
	$(GO) clean ./...
