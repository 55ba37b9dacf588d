GO ?= go

# Build identity injected into every binary (see internal/buildinfo).
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
COMMIT  ?= $(shell git rev-parse --short=12 HEAD 2>/dev/null || echo "")
DATE    ?= $(shell date -u +%Y-%m-%dT%H:%M:%SZ)
LDFLAGS  = -X qisim/internal/buildinfo.Version=$(VERSION) \
           -X qisim/internal/buildinfo.Commit=$(COMMIT) \
           -X qisim/internal/buildinfo.Date=$(DATE)

.PHONY: all build test vet race fuzz smoke unlinked loc offsets serve trace-demo verify clean help

all: build

build:
	$(GO) build -ldflags "$(LDFLAGS)" ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Record a span trace of a parallel Monte-Carlo decoder run and leave the
# Chrome trace_event JSON next to the repo. Open it in chrome://tracing or
# https://ui.perfetto.dev to see the engine fan-out: mc.run → per-shard
# spans on worker lanes, in-order merges, checkpoint flushes.
trace-demo:
	$(GO) run -ldflags "$(LDFLAGS)" ./cmd/qisim -trace-out qisim-trace.json -workers 4 mc -d 7 -shots 100000
	@echo "trace written to qisim-trace.json — load it in chrome://tracing or https://ui.perfetto.dev"

# Short fuzz smokes of the QASM parser, the checkpoint decoder, the dist
# unit-result, lease-grant and claim-body decoders, the job-journal record
# decoder, the coordinator's worker-telemetry intake and the job-submission
# decoder
# (longer runs on demand, e.g. `go test ./internal/qasm -fuzz FuzzParse
# -fuzztime 5m`).
fuzz:
	$(GO) test ./internal/qasm -fuzz FuzzParse -fuzztime 30s
	$(GO) test ./internal/checkpoint -fuzz FuzzCheckpointDecode -fuzztime 30s
	$(GO) test ./internal/dist -fuzz FuzzDecodeUnitResult -fuzztime 30s
	$(GO) test ./internal/dist -fuzz FuzzLeaseGrant -fuzztime 30s
	$(GO) test ./internal/dist -fuzz FuzzClaimRequest -fuzztime 30s
	$(GO) test ./internal/dist -fuzz FuzzTelemetry -fuzztime 30s
	$(GO) test ./internal/jobs -fuzz FuzzJournalLine -fuzztime 30s
	$(GO) test ./internal/service -fuzz FuzzJobRequest -fuzztime 30s

# Smokes of the built binaries: a traced `qisim mc` run exports a non-empty
# Chrome trace and `qisim-experiments` exports one too, qisimd prints the
# version stamped into it, and a distance outside the model exits 4 (invalid
# config) from esmgen and from `qisim mc`. Binaries and traces go to a
# temporary directory.
smoke:
	set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	exits4() { code=0; "$$@" > /dev/null 2>&1 || code=$$?; \
		[ $$code -eq 4 ] || { echo "$$*: exit $$code, want 4"; exit 1; }; }; \
	$(GO) build -o "$$dir/qisim" ./cmd/qisim; \
	"$$dir/qisim" -trace-out "$$dir/trace.json" -log-format json mc -d 3 -shots 2000; \
	$(GO) run ./cmd/qisim-experiments -trace-out "$$dir/exp-trace.json" table2 > /dev/null; \
	python3 -c "import json, sys; t = json.load(open(sys.argv[1])); assert t['traceEvents'], 'empty trace'" "$$dir/trace.json"; \
	$(GO) build -ldflags "$(LDFLAGS)" -o "$$dir/qisimd" ./cmd/qisimd; \
	"$$dir/qisimd" -version | grep -F "qisimd $(VERSION) "; \
	$(GO) build -o "$$dir/esmgen" ./cmd/esmgen; \
	exits4 "$$dir/esmgen" -d 4; \
	exits4 "$$dir/qisim" mc -d 53

# Every non-test function must be linked into one of the repository's
# binaries (cmd/*, examples/* and bench/, built with inlining off into a
# temporary directory) or be listed, with its reason, in linkcheck_test.go;
# a listed function that is now linked or gone fails too. -v logs the count.
unlinked:
	$(GO) test -tags linkcheck -run '^TestEveryFunctionLinked$$' -count=1 .

# Non-test Go lines of the tracked files per package, the infrastructure
# layers' total and the total outside bench/.
loc:
	@git ls-files '*.go' | grep -v '_test\.go$$' | xargs wc -l | awk '$$2 != "total" { \
		pkg = $$2; sub(/\/[^\/]*$$/, "", pkg); if (pkg == $$2) pkg = "."; n[pkg] += $$1; \
		if (pkg !~ /^bench/) all += $$1; \
		if (pkg ~ /^internal\/(service|dist|jobs|obs|metrics|chaos|dse|checkpoint|rescache|backoff)$$/) infra += $$1 } \
		END { for (p in n) printf "%7d  %s\n", n[p], p | "sort -k2"; close("sort -k2"); \
		printf "%7d  infrastructure (service dist jobs obs metrics chaos dse checkpoint rescache backoff)\n%7d  total outside bench/\n", infra, all }'

# The offset within its 64-byte cache line of each hot Monte-Carlo kernel in
# the benchmark binary, built into a temporary directory as bench/run.sh
# builds it. Link layout alone has moved mc-decode by 5%, so compare these
# on both binaries before reading a few-percent MC shift.
offsets:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	(cd bench && GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local $(GO) build -o "$$dir/qisim-bench" .); \
	$(GO) tool nm -n "$$dir/qisim-bench" > "$$dir/nm"; \
	for sym in 'qisim/internal/simrun.(*go1Source).hits' 'qisim/internal/surface.(*graph).match' \
		'qisim/internal/cmath.MulInto'; do \
		addr=$$(awk -v s="$$sym" '$$3 == s { print $$1 }' "$$dir/nm"); \
		[ -n "$$addr" ] || { echo "$$sym: not in the benchmark binary"; exit 1; }; \
		echo "$$(( 0x$$addr % 64 ))  $$sym"; \
	done

# Build and run the qisimd analysis service on :8080 with version stamping.
serve:
	$(GO) run -ldflags "$(LDFLAGS)" ./cmd/qisimd -addr :8080

# The CI gate: everything that must be green before a change lands; CI
# runs this target, then the dependency-vulnerability scan, which needs
# the network. Every tracked Go file must be gofmt-clean, and every
# non-test function linked or listed (`make unlinked`). Every package
# benchmark runs once, so none rots unnoticed. Every pinned report digest
# is checked with one pulse-evolution lane and with more lanes than the
# host has cores, and the three experiments that fan their gate-error
# evaluations out over goroutines run ten times under the race detector.
# The benchmark module is its own Go module, so the root vet and suite skip
# it; it is vetted here, and its tests are a --quick run of every workload
# with its output checks, reproduce's pinned digests included.
verify: vet build race fuzz smoke unlinked
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"
	cd bench && $(GO) vet ./...
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	$(GO) test -run TestReproduceEveryExperiment -cpu 1,4 .
	$(GO) test -race -count=10 -run 'TestReproduceEveryExperiment/^(table1|fig14|ablations)$$' .
	cd bench && $(GO) test ./...

clean:
	$(GO) clean ./...

help:
	@echo "Common targets:"
	@echo "  build           compile everything with version stamping"
	@echo "  test            run the full test suite"
	@echo "  race            run the full test suite under the race detector"
	@echo "  verify          the CI gate: vet + build + race + fuzz + gofmt + package benchmarks + pinned digests + experiment fan-out race check + bench/ vet and tests + smoke + unlinked"
	@echo "  smoke           CLI smokes: trace export, build identity, exit 4 on a bad distance"
	@echo "  unlinked        every non-test function is linked into a binary or listed in linkcheck_test.go"
	@echo "  loc             non-test Go lines per package, infrastructure total, total outside bench/"
	@echo "  offsets         cache-line offsets of the hot MC kernels in the benchmark binary"
	@echo "  trace-demo      record a Chrome trace of a parallel decoder run"
	@echo "  serve           run the qisimd analysis service on :8080"
