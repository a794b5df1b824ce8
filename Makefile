# Developer entry points for the SparCML reproduction.
#
#   make test               the tier-1 suite (what CI gates on)
#   make lint               ruff check (config in pyproject.toml; CI-enforced);
#                           without ruff, tools/lint.py: a stdlib ast walk for
#                           unused imports and undefined names in src/, tests/
#   make loc                code lines (non-blank, non-comment, non-docstring)
#                           per src/repro package and for the process-family
#                           backend files — the number the "Quality of
#                           design" aim asks every PR to report
#   make soak               25 back-to-back runs of the transport suites
#                           (progress engine with its hand-off cases,
#                           socket / process / shmem
#                           backends, communicator contexts, persistent
#                           plans (fixed keys, progress threads) and the
#                           flat channels of non-plan collectives, failure
#                           propagation through proxies, the socket
#                           crash -> shrink -> rejoin cycle, whose rejoin
#                           is the first join's path),
#                           stopping at the first failure — the long version
#                           of what tier-1 runs once
#   make smoke              fast subset (skips "slow" tests)
#   make calibrate          fit alpha/beta/gamma/launch from a few seconds of
#                           measurement on this host, written to
#                           results/calibrated_network.json (load with
#                           CostModel.resolve("calibrated:<path>") or
#                           examples/quickstart.py --network calibrated:<path>)
#   make bench-gate         the repo benchmark's own tests plus one quick
#                           round of every BENCHMARK.json workload, oracles
#                           on (bench/ is outside pytest's testpaths)
#   make bench-smoke        a quick pass over the cheapest benchmark figures,
#                           plus every micro-kernel row once, untimed
#   make profile            a sampled CPU profile of one rank in latency_bound's
#                           loop (socket, P = 4, 128 nnz, 6 000 steps): self
#                           and inclusive us per rank per step, per function
#                           (tools/profile_rank.py --help for other shapes)
#   make bench              every benchmark table/figure (minutes)
#
# CI (.github/workflows/ci.yml) runs `make test` as the main gate, the
# backend-equivalence/property suites as a separate leg
# (transport flakiness surfaces there, with results/ uploaded on failure),
# and `make lint` — all on every push/PR.

PYTHON ?= python

# pytest picks up src/ from pyproject's pythonpath; direct `-m repro`
# invocations need it on PYTHONPATH explicitly.
RUN = PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) $(PYTHON)

.PHONY: test lint loc soak smoke bench-smoke bench calibrate bench-gate profile

test:
	$(PYTHON) -m pytest -x -q

lint:
	@if $(PYTHON) -c "import ruff" 2>/dev/null; then $(PYTHON) -m ruff check .; \
	else $(PYTHON) tools/lint.py; fi

loc:
	$(PYTHON) tools/loc.py

profile:
	$(PYTHON) tools/profile_rank.py

soak:
	@for i in $$(seq 1 25); do echo "soak run $$i/25"; \
	$(PYTHON) -m pytest -x -q -p no:cacheprovider tests/test_progress_engine.py \
	    tests/test_socket_backend.py tests/test_process_backend.py tests/test_shmem_backend.py \
	    tests/test_contexts.py tests/test_plans.py \
	    "tests/test_faults.py::TestFailurePropagationThroughProxies" \
	    "tests/test_elastic.py::TestSocketRejoin" || exit 1; done

smoke:
	$(PYTHON) -m pytest -x -q -k "not slow" -m "not slow"

calibrate:
	$(RUN) -m repro calibrate

bench-gate:
	$(PYTHON) -m pytest bench/test_bench.py -q
	$(PYTHON) bench/run.py --quick

bench-smoke:
	$(PYTHON) -m pytest -q benchmarks/test_fig1_fillin.py benchmarks/test_fig7_expected_k.py benchmarks/test_table1_datasets.py benchmarks/test_tiered_replay.py
	$(PYTHON) -m pytest -q benchmarks/test_microkernels.py --benchmark-disable

bench:
	$(PYTHON) -m pytest -q benchmarks/
