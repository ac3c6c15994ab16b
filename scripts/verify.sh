#!/usr/bin/env sh
# Tier-1 verification: an optional native-kernel build (SKIPs cleanly
# when no C toolchain is present — every engine then degrades to
# scipy), the full unit suite, the chaos (fault-injection replay)
# suite, a collect-only guard keeping every benchmark file importable
# (they are not part of tier-1, so a stray import error would
# otherwise go unnoticed until someone tries to reproduce a table),
# the end-to-end benchmark harness self-test (every BENCHMARK.json
# workload once untraced and once traced at smoke size, so the layer
# names its tracer wraps must still exist), a budget-capped multilevel
# scaling smoke (the whole V-cycle on tiny Rent instances), an
# optimality-gap smoke (FLOW vs the exact oracles
# on the golden corpus; ILP rows SKIP without pulp), the service smoke
# (htp serve / htp submit as real processes: cold
# solve, warm cache hit, graceful drain), the cluster smoke (htp route
# + two joined workers with private scratch: routed solve, shared-cache
# warm hit, mid-solve worker kill resumed from HTTP-replicated
# checkpoints to a bit-identical finish), the cluster partition drill
# (primary router behind the netfaults TCP proxy: link severed
# mid-flight, warm standby takes over with a bumped fencing epoch, the
# zombie primary's forwards are refused), the documentation checker
# (runnable snippets, live links, complete benchmark table, required
# sections), and the coverage gate (line coverage of src/repro/core
# and src/repro/service may not drop below the committed baseline).
#
# Usage: sh scripts/verify.sh   (or: make verify)
set -e
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== build-kernel (optional native extension) =="
# OptionalBuildExt already downgrades compiler failures to a warning;
# the || branch catches a setup that cannot even start (no setuptools
# C machinery at all).  Either way the suite below must still pass —
# that IS the no-compiler degradation contract.
if python setup.py build_ext --inplace >/dev/null 2>&1; then
    python -c "
from repro.core import _kernel
if _kernel.available():
    print('native kernel built')
else:
    print('SKIP: native kernel not importable (' + _kernel.unavailable_reason() + ')')
"
else
    echo "SKIP: build_ext failed (no C toolchain?) — native engine degrades to scipy"
fi

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== chaos suite =="
python -m pytest -m chaos -q

echo "== benchmark import guard =="
# Collect every bench_*.py (the e2e harness runs for real just below).
python -m pytest benchmarks --ignore=benchmarks/e2e --co -q

echo "== end-to-end benchmark harness self-test =="
python -m pytest benchmarks/e2e -q

echo "== multilevel scaling smoke (REPRO_BENCH_SCALE=0.02) =="
# Budget-capped: ~200/2000-node instances keep this under ~10s while
# still driving the whole V-cycle (coarsen, coarse solve, corridor
# refinement) and the flat-FLOW budget machinery end to end.
REPRO_BENCH_SCALE=0.02 python -m pytest benchmarks/bench_multilevel.py -q

echo "== optimality-gap smoke (exact oracles vs FLOW on the golden corpus) =="
# Fast by construction: the corpus is sized for exact solvability.
# ILP cross-check rows SKIP cleanly when no pulp/CBC solver is
# installed; the DP and branch-and-bound oracles always run.
python -m pytest benchmarks/bench_optimality.py -q

echo "== service smoke =="
python scripts/serve_smoke.py

echo "== cluster smoke =="
python scripts/cluster_smoke.py

echo "== cluster partition drill =="
python scripts/cluster_smoke.py --drill partition

echo "== docs check =="
python scripts/docs_check.py

echo "== coverage gate (core + service) =="
python scripts/coverage_core.py --check

echo "verify OK"
