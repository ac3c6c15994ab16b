# Convenience targets; see scripts/verify.sh for the canonical check.

.PHONY: verify test chaos coverage bench-micro bench-service bench-multilevel bench-optimality bench-cluster bench-e2e-selftest docs-check serve-smoke cluster-smoke cluster-partition-smoke

verify:
	sh scripts/verify.sh

test:
	PYTHONPATH=src python -m pytest -x -q

# Chaos suite: SIGKILLed service and cluster processes and severed
# network links must still finish every job bit-identically.
chaos:
	PYTHONPATH=src python -m pytest -m chaos -q

# Line coverage of src/repro/core against the committed baseline
# (scripts/coverage_baseline.json); refresh with --write-baseline.
coverage:
	PYTHONPATH=src python scripts/coverage_core.py --check

# Doctest the documentation snippets, fail on dead intra-repo links and
# on benchmark files missing from docs/benchmarks.md.
docs-check:
	python scripts/docs_check.py

# End-to-end smoke of the partitioning service: htp serve + htp submit
# as real processes (cold solve, warm cache hit, graceful drain).
serve-smoke:
	PYTHONPATH=src python scripts/serve_smoke.py

# End-to-end smoke of the cluster tier: htp route + two joined workers
# as real processes (routed cold solve, shared-cache warm hit, and a
# mid-solve worker SIGKILL resumed from replicated checkpoints to a
# bit-identical finish).
cluster-smoke:
	PYTHONPATH=src python scripts/cluster_smoke.py

# Partition drill: primary router behind the netfaults TCP proxy, link
# severed mid-flight — warm standby must take over with a bumped
# fencing epoch and the zombie primary's forwards must be refused.
cluster-partition-smoke:
	PYTHONPATH=src python scripts/cluster_smoke.py --drill partition

# Self-test of the end-to-end benchmark harness (benchmarks/e2e): every
# BENCHMARK.json workload once untraced and once traced at smoke size.
bench-e2e-selftest:
	PYTHONPATH=src python -m pytest benchmarks/e2e -q

# Refresh the checked-in micro-bench trajectory (BENCH_micro.json).
bench-micro:
	PYTHONPATH=src python -m pytest benchmarks/bench_spreading_batch.py \
		-q --bench-json BENCH_micro.json

# Refresh the service cold-vs-warm latency record (BENCH_service.json).
bench-service:
	PYTHONPATH=src python -m pytest benchmarks/bench_service_cache.py \
		-q --bench-json BENCH_service.json

# Refresh the optimality-gap record (BENCH_optimality.json): FLOW vs
# the exact oracles (tree-metric DP / branch-and-bound / ILP) on the
# golden corpus in tests/regressions/optimal/.  Seconds, not minutes.
bench-optimality:
	PYTHONPATH=src python -m pytest benchmarks/bench_optimality.py \
		-q --bench-json BENCH_optimality.json

# Refresh the multilevel scaling record (BENCH_multilevel.json): the
# V-cycle vs flat FLOW vs FM-multilevel at 10k/100k nodes.  Takes
# minutes at full scale; verify.sh runs it at REPRO_BENCH_SCALE=0.02.
bench-multilevel:
	PYTHONPATH=src python -m pytest benchmarks/bench_multilevel.py \
		-q --bench-json BENCH_multilevel.json

# Refresh the cluster load/failover record (BENCH_cluster.json): open-
# loop arrivals against a real router + worker subprocesses at 1/2/4
# workers, a shared-cache warm row, and a kill-one-worker recovery row.
bench-cluster:
	PYTHONPATH=src python -m pytest benchmarks/bench_cluster.py \
		-q --bench-json BENCH_cluster.json
