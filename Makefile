# Repository CI entry points. `make ci` is the gate: formatting, vet,
# build, tests (tier-1 `go test ./...` holds the sweep goldens, the CLI
# end-to-end rows and the doc check), the race detector over every
# package, and the live-daemon service smokes.

GO ?= go

.PHONY: ci fmt vet build test race serve-smoke chaos-smoke peer-smoke bench

ci: fmt vet build test race serve-smoke chaos-smoke peer-smoke

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt: needs formatting:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Service gate: a race-built vbserve must accept the example MM job
# twice over HTTP (the second as a plan-cache hit), then drain clean on
# SIGTERM with exit status 0.
serve-smoke:
	$(GO) build -race -o /tmp/vbserve-smoke ./cmd/vbserve
	/tmp/vbserve-smoke -addr 127.0.0.1:18807 -clusters 2 & \
	pid=$$!; \
	sleep 1; \
	curl -sf -X POST --data @examples/serve_mm.json 'http://127.0.0.1:18807/v1/jobs?wait=1' > /tmp/vbus-serve-1.json && \
	curl -sf -X POST --data @examples/serve_mm.json 'http://127.0.0.1:18807/v1/jobs?wait=1' > /tmp/vbus-serve-2.json && \
	grep -q '"cache_hit": false' /tmp/vbus-serve-1.json && \
	grep -q '"cache_hit": true' /tmp/vbus-serve-2.json && \
	grep -q '"state": "done"' /tmp/vbus-serve-2.json && \
	kill -TERM $$pid && wait $$pid
	@rm -f /tmp/vbserve-smoke /tmp/vbus-serve-1.json /tmp/vbus-serve-2.json

# Robustness gate: the jobs layer's hardening tests under the race
# detector, the seeded chaos sweep (poison specs, worker kills,
# deadline storms, rate-limit floods — every invariant asserted), and
# an end-to-end daemon exercise: a poison job fails without taking the
# server down, a stalled job is cancelled at its deadline, SIGTERM
# journals the plan cache, and the restarted server answers the same
# job from the warmed cache.
chaos-smoke:
	$(GO) test -race ./internal/jobs
	$(GO) run ./cmd/vbbench -sweep chaos > /dev/null
	$(GO) build -race -o /tmp/vbserve-chaos ./cmd/vbserve
	sed 's/"tenant": "demo",/"tenant": "demo", "faults": "panicjob=1",/' examples/serve_mm.json > /tmp/vbus-chaos-poison.json
	sed 's/"tenant": "demo",/"tenant": "demo", "faults": "stalljob=10s", "deadline_ms": 200,/' examples/serve_mm.json > /tmp/vbus-chaos-stall.json
	rm -f /tmp/vbus-chaos.vbpj
	/tmp/vbserve-chaos -addr 127.0.0.1:18809 -clusters 2 -cache-journal /tmp/vbus-chaos.vbpj & \
	pid=$$!; \
	sleep 1; \
	curl -sf 'http://127.0.0.1:18809/healthz/ready' > /dev/null && \
	curl -sf -X POST --data @/tmp/vbus-chaos-poison.json 'http://127.0.0.1:18809/v1/jobs?wait=1' | grep -q '"state": "failed"' && \
	curl -sf -X POST --data @/tmp/vbus-chaos-stall.json 'http://127.0.0.1:18809/v1/jobs?wait=1' | grep -q '"state": "cancelled"' && \
	curl -sf -X POST --data @examples/serve_mm.json 'http://127.0.0.1:18809/v1/jobs?wait=1' | grep -q '"state": "done"' && \
	curl -sf 'http://127.0.0.1:18809/healthz/live' > /dev/null && \
	kill -TERM $$pid && wait $$pid
	test -s /tmp/vbus-chaos.vbpj
	/tmp/vbserve-chaos -addr 127.0.0.1:18809 -clusters 2 -cache-journal /tmp/vbus-chaos.vbpj & \
	pid=$$!; \
	sleep 1; \
	curl -sf -X POST --data @examples/serve_mm.json 'http://127.0.0.1:18809/v1/jobs?wait=1' > /tmp/vbus-chaos-warm.json && \
	grep -q '"cache_hit": true' /tmp/vbus-chaos-warm.json && \
	grep -q '"state": "done"' /tmp/vbus-chaos-warm.json && \
	kill -TERM $$pid && wait $$pid
	@rm -f /tmp/vbserve-chaos /tmp/vbus-chaos-poison.json /tmp/vbus-chaos-stall.json /tmp/vbus-chaos.vbpj /tmp/vbus-chaos-warm.json

# Federation gate: the peer package under the race detector, the
# seeded three-peer sweep (forwarding, mid-run kill, failover and
# rebalance claims asserted), then an end-to-end ring of three
# race-built daemons: a job submitted through node 1 executes at its
# ring owner (the X-VBus-Peer header names it), the same job through
# node 2 is a warm hit at that owner, the owner is then kill -9'd and
# a submission through a survivor still completes, after which the
# survivor's /healthz/ready reports the victim "dead". The remaining
# daemons drain clean on SIGTERM.
peer-smoke:
	$(GO) test -race ./internal/peer
	$(GO) run ./cmd/vbbench -sweep peers > /dev/null
	$(GO) build -race -o /tmp/vbserve-peer ./cmd/vbserve
	PEERS=127.0.0.1:18811,127.0.0.1:18812,127.0.0.1:18813; \
	/tmp/vbserve-peer -addr 127.0.0.1:18811 -self 127.0.0.1:18811 -peers $$PEERS -gossip-interval 100ms -clusters 2 & p1=$$!; \
	/tmp/vbserve-peer -addr 127.0.0.1:18812 -self 127.0.0.1:18812 -peers $$PEERS -gossip-interval 100ms -clusters 2 & p2=$$!; \
	/tmp/vbserve-peer -addr 127.0.0.1:18813 -self 127.0.0.1:18813 -peers $$PEERS -gossip-interval 100ms -clusters 2 & p3=$$!; \
	sleep 1; \
	curl -sf -D /tmp/vbus-peer-h1.txt -X POST --data @examples/serve_mm.json 'http://127.0.0.1:18811/v1/jobs?wait=1' | grep -q '"state": "done"' && \
	curl -sf -X POST --data @examples/serve_mm.json 'http://127.0.0.1:18812/v1/jobs?wait=1' | grep -q '"cache_hit": true' && \
	owner=$$(grep -i '^x-vbus-peer:' /tmp/vbus-peer-h1.txt | tr -d '\r' | awk '{print $$2}'); \
	echo "peer-smoke: ring owner is $$owner"; \
	case "$$owner" in \
	  *18811) opid=$$p1; entry=127.0.0.1:18812;; \
	  *18812) opid=$$p2; entry=127.0.0.1:18813;; \
	  *18813) opid=$$p3; entry=127.0.0.1:18811;; \
	  *) echo "peer-smoke: unknown owner '$$owner'"; kill $$p1 $$p2 $$p3 2>/dev/null; exit 1;; \
	esac; \
	kill -9 $$opid && \
	curl -sf -X POST --data @examples/serve_mm.json "http://$$entry/v1/jobs?wait=1" | grep -q '"state": "done"' && \
	sleep 2 && \
	curl -sf "http://$$entry/healthz/ready" | grep -q '"dead"' && \
	ok=0 || ok=1; \
	for p in $$p1 $$p2 $$p3; do [ "$$p" = "$$opid" ] || kill -TERM $$p 2>/dev/null; done; \
	for p in $$p1 $$p2 $$p3; do [ "$$p" = "$$opid" ] || wait $$p || ok=1; done; \
	exit $$ok
	@rm -f /tmp/vbserve-peer /tmp/vbus-peer-h1.txt

# The paper-level benchmarks and the compile path (Compile24 is one
# round of the repository benchmark's compile_cold mix; DetectParallel,
# EstimateCommCost and RaceCheck are the passes that dominated it), then
# the evaluator alone (sequential Full MM 96² and SWIM 192², ns per
# innermost iteration).
bench:
	$(GO) test -bench=. -benchmem .
	$(GO) test -run '^$$' -bench 'InterpFull|RunTiming1024' -benchmem ./internal/interp
