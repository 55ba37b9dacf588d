GO ?= go

# Build identity injected into every binary (see internal/buildinfo).
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
COMMIT  ?= $(shell git rev-parse --short=12 HEAD 2>/dev/null || echo "")
DATE    ?= $(shell date -u +%Y-%m-%dT%H:%M:%SZ)
LDFLAGS  = -X qisim/internal/buildinfo.Version=$(VERSION) \
           -X qisim/internal/buildinfo.Commit=$(COMMIT) \
           -X qisim/internal/buildinfo.Date=$(DATE)

.PHONY: all build test vet race fuzz serve trace-demo verify clean help

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
# unit-result decoder and the job-journal record decoder, the targets CI
# fuzzes (longer runs on demand, e.g.
# `go test ./internal/qasm -fuzz FuzzParse -fuzztime 5m`).
fuzz:
	$(GO) test ./internal/qasm -fuzz FuzzParse -fuzztime 15s
	$(GO) test ./internal/checkpoint -fuzz FuzzCheckpointDecode -fuzztime 15s
	$(GO) test ./internal/dist -fuzz FuzzDecodeUnitResult -fuzztime 15s
	$(GO) test ./internal/jobs -fuzz FuzzJournalLine -fuzztime 15s

# Build and run the qisimd analysis service on :8080 with version stamping.
serve:
	$(GO) run -ldflags "$(LDFLAGS)" ./cmd/qisimd -addr :8080

# The CI gate: everything that must be green before a change lands. The
# benchmark module is its own Go module, so the root suite skips it; its
# tests are a --quick run of every workload with its output checks,
# reproduce's pinned digests included.
verify: vet build race fuzz
	cd bench && $(GO) test ./...

clean:
	$(GO) clean ./...

help:
	@echo "Common targets:"
	@echo "  build           compile everything with version stamping"
	@echo "  test            run the full test suite"
	@echo "  race            run the full test suite under the race detector"
	@echo "  verify          the CI gate: vet + build + race + fuzz + bench/ tests"
	@echo "  trace-demo      record a Chrome trace of a parallel decoder run"
	@echo "  serve           run the qisimd analysis service on :8080"
