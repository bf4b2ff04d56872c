# Convenience targets; see README.md.

.PHONY: install test perf-smoke perf-pairs split experiments examples cob recovery all

install:
	pip install -e .

test:
	pytest tests/

# The benchmark harness at smoke size, then its self-tests (tier-1 collects
# neither), the host-time split of five workloads and the OBS-overhead gate.
# Gates on exit status only: every workload's dict-model oracle and the
# traced-vs-untraced sim_digest equality; the one timing gate is
# obs_overhead's paired on/off ratio < 1.05 on the E6 sweep (the harness has
# no metric for it yet).
perf-smoke:
	python3 benchmarks/perf/run.py --scale 0.05
	python -m pytest benchmarks/perf/tests -q
	for w in tree_read tree_write durable_e21 serve_e19 device_engine; do \
		python3 tools/split.py --workload $$w --scale 0.05 || exit 1; done
	python3 tools/obs_overhead.py

# N alternating parent/change pairs of one benchmark workload, then
# compare.py over both sets (the procedure a claimed gain is shown by):
#   make perf-pairs WORKLOAD=device_engine BASE=<sha> N=10 SEED=0
# WORKLOAD=all runs every workload of BENCHMARK.json in turn and fails if
# any of them does (the check a no-gain change needs).
WORKLOAD ?= device_engine
BASE ?= HEAD
N ?= 10
SEED ?= 0
perf-pairs:
	python3 tools/perf_pairs.py --workload $(WORKLOAD) --base $(BASE) --n $(N) --seed $(SEED)

# Where a workload's host time goes, by kind and step (tree / cache / device
# for the tree workloads; WAL, checkpoint, tree and recovery steps for
# durable_e21; the request path for serve_e19; ssd / hdd service, runner,
# read-ahead and device protocol for device_engine): sampled median us per
# op, tools/split.py over repro.obs.sampler; sizing, not a claim:
#   make split WORKLOAD=tree_write   (tree_read, durable_e21, serve_e19,
#   device_engine; SEED as above)
split:
	python3 tools/split.py --workload $(WORKLOAD) --seed $(SEED)

experiments:
	PYTHONPATH=src python -m repro.experiments all

# The cache-oblivious tier: its tests (the lockstep machine among them) and
# the E20 quick sweep.
cob:
	PYTHONPATH=src python -m pytest tests/trees/test_cob.py tests/trees/test_cob_accounting.py tests/trees/test_pma_floors.py tests/trees/test_cob_flush.py tests/trees/test_range_charges.py tests/trees/test_veb.py tests/trees/test_conformance.py tests/trees/test_put_many.py tests/trees/test_point_charges.py tests/trees/test_lockstep.py -q
	PYTHONPATH=src python -m repro.experiments cob --quick --no-cache

# The durability layer: its tests (the pinned reads of the scans its
# checkpoints take, E21's gates and the lockstep machine, whose durable
# subjects crash and recover) + the sampled crash-consistency checker over
# every registered tree kind.
recovery:
	PYTHONPATH=src python -m pytest tests/recovery tests/faults/test_crash.py tests/serve/test_crash_failover.py tests/trees/test_range_charges.py tests/experiments/test_experiments.py::TestDurability tests/trees/test_lockstep.py -q
	PYTHONPATH=src python -c "from repro.recovery import run_check; from repro.trees import KINDS; \
	reports = {t: run_check(t, n_ops=60, mode='sample', samples=16, seed=0) for t in KINDS}; \
	[print(t, r.describe()) for t, r in reports.items()]; \
	assert all(r.passed for r in reports.values())"

examples:
	PYTHONPATH=src python examples/quickstart.py
	PYTHONPATH=src python examples/node_size_tuning.py
	PYTHONPATH=src python examples/ssd_concurrency.py
	PYTHONPATH=src python examples/aging_range_queries.py
	PYTHONPATH=src python examples/io_trace_analysis.py

all: test experiments
