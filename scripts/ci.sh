#!/usr/bin/env bash
# CI entry point: configure + build + test, with warnings-as-errors on
# every library source under src/, the perfbench digest gates
# (a short run of each repository-benchmark workload — serve_overload,
# serve_stream and infer_zoo — must match its stored output digests
# on all ten stored seeds)
# with perfbench's unit tests, the Release-only scale tier and
# simulator-performance floor gate (bench_simperf), the capacity-
# planner gate (bench_serving --sweep plan: planner pick must equal
# exhaustive search with strictly fewer probes), the heterogeneous
# lattice gate (bench_serving --sweep hetero: watt-budgeted server +
# edge composition plan vs the exhaustive lattice, plus uniform-1GHz
# mixed-fleet byte-identity with the frozen cycle-domain engine), the
# closed-loop traffic gate (bench_serving --sweep traffic: static
# plan vs reactive autoscaler over a flash-crowd program), the fault
# injection gate (bench_serving --sweep faults: crash/straggler/
# retry/hedge scenarios, empty-program byte-identity with the frozen
# reference, extended conservation, and an availability plan whose
# spare rides out a crash the nominal fleet fails), the run-ahead gate
# (bench_serving --sweep runahead: cost-aware hold-vs-dispatch must
# dominate pure-eager and pure-hold, the k=1/2/4 depth ladder must be
# monotone, and depth-1/cost-off output must be byte-identical to the
# frozen reference), a
# schema-doc check that
# keeps docs/SERVING_JSON.md in lockstep with writeServingJson,
# writePlanJson and bench_serving's own envelope, followed by an
# ASan+UBSan build that re-runs the runtime test suites (the event
# loop and the property/fuzz sweeps are where lifetime/overflow bugs
# would hide) and the mapping suites (the grid-indexed FPS, kNN and
# ball query against their full-scan oracles), the map-cache bench sweep,
# a sanitized 10^5-request smoke of the discrete-event core, 2-probe
# planner, hetero-lattice, traffic/autoscaler, fault-injection and
# run-ahead smokes, and finally a
# TSan build that runs the executor unit suite, the sharded property
# sweeps and threaded hetero-lattice, run-ahead and fault-injection
# smokes with a 4-worker pool (the
# only stage that exercises real thread interleavings — Release gates
# above are also routed through --threads 4, but their byte-identity
# gates would mask a data race that TSan catches directly).
#
# The Release gates pass --threads 4 everywhere the executor has a
# consumer (bench rows, planner ray searches, sharded simperf tier,
# property seed loops): every byte-identity gate then pins parallel
# output to the serial reference on every CI run.
# Suitable as a GitHub Actions step:
#
#   - name: Build and test
#     run: ./scripts/ci.sh
#
# Environment:
#   BUILD_DIR       build tree location            (default: build-ci)
#   SAN_BUILD_DIR   sanitizer build tree location  (default: build-asan)
#   TSAN_BUILD_DIR  TSan build tree location       (default: build-tsan)
#   JOBS            parallel build jobs            (default: nproc)

set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-ci}"
SAN_BUILD_DIR="${SAN_BUILD_DIR:-build-asan}"
TSAN_BUILD_DIR="${TSAN_BUILD_DIR:-build-tsan}"
JOBS="${JOBS:-$(nproc)}"

cmake -B "${BUILD_DIR}" -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DPOINTACC_WERROR=ON

cmake --build "${BUILD_DIR}" -j "${JOBS}"

ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"

# End-to-end byte gate: perfbench's stored digest table pins the
# served bytes of both serving workloads (every writeServingJson report
# of the overloaded queue and of the 16-shard stream) and every
# modelled cycle and byte of the paper networks, including everything
# the order of the functional maps drives. One short run of each
# workload must report "correct": true with 0 failed operations, and
# perfbench's own unit tests must pass in the same build tree.
PERFBENCH_DIR="${BUILD_DIR}/perfbench"
for workload in serve_overload serve_stream infer_zoo; do
    echo "== perfbench ${workload} digest gate =="
    result="$(CARGO_TARGET_DIR="${PERFBENCH_DIR}" python3 perfbench/run.py \
        --workload "${workload}" --seed 0 --seconds 5 --trace 0 |
        tail -n 1)"
    if ! grep -q '"correct": true' <<<"${result}" ||
       ! grep -q '"failed": 0[,}]' <<<"${result}"; then
        echo "error: perfbench ${workload} digests do not match: ${result}"
        exit 1
    fi
    echo "perfbench ${workload}: correct, 0 failed"
done
# Every workload also gates on the other nine stored seeds, one short
# run each (a digest check needs one repetition). infer_zoo's digests
# pin the exactness of the functional mapping searches (pruned FPS,
# ring-search kNN, ball query) against their full-scan results;
# serve_stream's pin every served byte of the wait-for-K, map-cache,
# run-ahead and mixed-clock paths, which only it runs; serve_overload's
# pin the admission and batch-formation core with every feature off.
for workload in serve_overload serve_stream infer_zoo; do
    for seed in 1 2 3 4 5 6 7 8 9; do
        echo "== perfbench ${workload} seed ${seed} digest gate =="
        result="$(CARGO_TARGET_DIR="${PERFBENCH_DIR}" python3 perfbench/run.py \
            --workload "${workload}" --seed "${seed}" --seconds 1 --trace 0 |
            tail -n 1)"
        if ! grep -q '"correct": true' <<<"${result}" ||
           ! grep -q '"failed": 0[,}]' <<<"${result}"; then
            echo "error: perfbench ${workload} seed ${seed} digests do not match: ${result}"
            exit 1
        fi
    done
done
cmake --build "${PERFBENCH_DIR}" --target perfbench_tests -j "${JOBS}"
ctest --test-dir "${PERFBENCH_DIR}" --output-on-failure --no-tests=error \
    -R perfbench

# Serving-runtime acceptance: p99 latency must not increase with fleet
# size, the two-stage pipeline must beat monolithic occupancy at equal
# fleet size, the kernel-map cache must strictly improve p99 or
# throughput at reuse >= 0.5, and profiling must stay memoized across
# rows (the bench exits non-zero on violation). --threads 4 routes the
# sweep rows through the one-queue pool; declaration-order merge
# keeps the JSON byte-identical to a serial run, which the cmp below
# checks against a --threads 1 run of the same sweeps.
"${BUILD_DIR}/bench_serving" --threads 4 \
    --json "${BUILD_DIR}/BENCH_serving.json"
"${BUILD_DIR}/bench_serving" --threads 1 \
    --json "${BUILD_DIR}/BENCH_serving_serial.json"
if ! cmp "${BUILD_DIR}/BENCH_serving.json" \
         "${BUILD_DIR}/BENCH_serving_serial.json"; then
    echo "error: bench_serving --threads 4 JSON differs from --threads 1"
    exit 1
fi

# Release-stage scale tier: 10^5-request property sweeps (conservation,
# determinism, byte-identity with the preserved seed engine) that the
# quick ctest pass skips; the seed loops shard across 4 workers.
"${BUILD_DIR}/test_runtime_properties" --scale --threads 4

# Simulator-performance gate (Release, -O2/-O3 -DNDEBUG): the O(log n)
# discrete-event core must clear the stored requests-per-second floor
# on the anchor row (10^6 requests, fleet 16), beat the preserved seed
# engine >= 10x, and match it byte-identically on a shared trace. With
# --threads 4 the sharded tier (fleet 256, 10^7 requests) also runs:
# its merge-determinism gate always applies, and its multi-thread
# requests-per-second floor gates on 4+-core runners. See
# docs/PERFORMANCE.md for the floor-update procedure.
"${BUILD_DIR}/bench_simperf" --quick --threads 4 \
    --json "${BUILD_DIR}/BENCH_simperf.json"

# Opt-in bench_serving sweeps. One list drives every tree: the
# Release tree gates each sweep on a quick grid and writes its own
# BENCH_serving_<sweep>.json; the ASan+UBSan tree re-runs each as a
# --smoke structural pass; the TSan tree runs the threaded subset.
#
#   plan      capacity planner: the pick must equal the exhaustive
#             optimum with strictly fewer probes (within the budget);
#             concurrent (combo, ray) searches must serialize
#             byte-identically to a serial re-plan.
#   hetero    watt-budgeted server + edge composition: the budget must
#             bind, the lattice pick must equal the exhaustive lattice
#             optimum with fewer probes, and a mixed-class fleet at
#             uniform 1 GHz must serve byte-identically to the frozen
#             cycle-domain reference engine.
#   traffic   flash-crowd program: the static plan must hold the SLO;
#             the autoscaler must scale, converge, conserve requests
#             and save instance-cycles. Runs serially in Release.
#   faults    crash / straggler / MTBF / hedge scenarios: empty-program
#             byte-identity with the reference engine, extended
#             conservation on every row, and an availability plan
#             whose spare rides out a crash the nominal fleet fails.
#   runahead  cost-aware hold-vs-dispatch must dominate pure-eager and
#             pure-hold at the knee, the k=1/2/4 run-ahead ladder must
#             be monotone, and depth 1 with pricing off must serve
#             byte-identically to the reference engine.
SWEEPS="plan hetero traffic faults runahead"
# Under TSan: the sweeps whose concurrent probes share the profiling
# memo (two accelerator classes plus an overclocked variant; the
# staged cascade and the priced hold path; faulted rows — crash,
# retry and hedge paths — served side by side on the pool).
TSAN_SWEEPS="hetero runahead faults"

for sweep in ${SWEEPS}; do
    threads="--threads 4"
    if [ "${sweep}" = traffic ]; then
        threads=""
    fi
    # shellcheck disable=SC2086 # ${threads} is zero or two words
    "${BUILD_DIR}/bench_serving" --sweep "${sweep}" --quick ${threads} \
        --json "${BUILD_DIR}/BENCH_serving_${sweep}.json"
done

# Schema-doc check: every JSON key writeServingJson, writePlanJson and
# bench_serving's BENCH_serving.json writer emit must be documented (in
# backticks) in docs/SERVING_JSON.md, so the published schemas can
# never silently drift from the writers.
echo "== serving/plan/bench JSON schema doc check =="
missing=0
for key in $(sed -nE 's/.*w\.(field|key)\("([a-z0-9_]+)".*/\2/p' \
                 src/runtime/serving_stats.cpp \
                 src/runtime/planner.cpp \
                 bench/bench_serving.cpp | sort -u); do
    if ! grep -q "\`${key}\`" docs/SERVING_JSON.md; then
        echo "error: JSON key '${key}' is missing from docs/SERVING_JSON.md"
        missing=1
    fi
done
if [ "${missing}" -ne 0 ]; then
    exit 1
fi
echo "all writeServingJson/writePlanJson/BENCH_serving.json keys documented"

# ASan+UBSan pass over the runtime, mapping, network (test_nn), memory,
# simulator (test_sim), integration and core test suites plus the
# map-cache bench sweep. The network executor's maps outlive one layer
# (a stage's shared submanifold or EdgeConv maps, each open
# downsample's maps and the half of its stage's maps before the centre
# moved through the level stack, then restored for the decoder
# stage), so test_nn runs sanitized, test_sim runs the accelerator's
# reuse of one layer's cache walk by the next over those maps, and
# test_integration's NetworkSweep runs Accelerator::run over the whole
# zoo, so the held and restored maps run sanitized end to end;
# test_core runs sanitized because coordSortOrder is a radix sort
# indexing by key bytes; test_mxu and test_baselines run sanitized
# because MatrixUnit::sparseConv and the Mesorasi model read the
# MapSet groups too.
# Examples and the remaining benchmarks are skipped
# (sanitized simulator runs are slow and the simulator itself is
# covered by its own suites); bench_serving builds so the cache sweep
# runs sanitized (--quick bounds the horizon, --sweep cache skips the
# sweeps whose gates the unsanitized run already enforced);
# warnings-as-errors stays on for all of src/.
cmake -B "${SAN_BUILD_DIR}" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPOINTACC_SANITIZE=ON \
    -DPOINTACC_WERROR=ON \
    -DPOINTACC_BUILD_BENCH=ON \
    -DPOINTACC_BUILD_EXAMPLES=OFF

cmake --build "${SAN_BUILD_DIR}" -j "${JOBS}" \
    --target test_runtime test_runtime_properties test_report_golden \
             test_executor test_mapping test_mpu test_nn test_memory \
             test_sim test_integration test_core test_mxu test_baselines \
             bench_serving bench_simperf

ctest --test-dir "${SAN_BUILD_DIR}" --output-on-failure -j "${JOBS}" \
    --no-tests=error \
    -R 'test_runtime|test_runtime_properties|test_report_golden|test_executor|test_mapping|test_mpu|test_nn|test_memory|test_sim|test_integration|test_core|test_mxu|test_baselines'

"${SAN_BUILD_DIR}/bench_serving" --sweep cache --quick --no-json

# Sanitized 10^5-request smoke of the discrete-event core: one
# 10^5-request row through the heap loop, indexed queue and streaming
# generator under ASan+UBSan. --smoke applies no wall-clock floor
# (a sanitized floor would measure the sanitizer, not the simulator).
"${SAN_BUILD_DIR}/bench_simperf" --smoke --no-json

# Sanitized smokes of every opt-in sweep: short horizons through the
# same paths under ASan+UBSan (structural checks only; the Release
# gates above enforced the outcomes).
for sweep in ${SWEEPS}; do
    "${SAN_BUILD_DIR}/bench_serving" --sweep "${sweep}" --smoke --no-json
done

# TSan pass over the threaded paths: the executor unit suite, repeated
# 20 times so its wait/notify paths (enqueue and completion wakeups,
# helping get(), nested get, destructor drain) meet many interleavings,
# the property sweeps with a 4-worker pool (the seed loops shard, and
# PlannerProperties runs concurrent (combo, ray) searches, counting
# their probes from worker threads — including the hetero
# composition lattice — against SimServiceModel's shared_mutex-guarded
# memo caches), a threaded hetero-lattice smoke, which is the one
# path where concurrent probes profile two accelerator classes plus an
# overclocked variant through the shared memo, and a threaded
# run-ahead smoke covering the staged cascade and priced hold paths,
# and a threaded fault-injection smoke whose faulted rows (crash,
# retry, hedge) are served concurrently on the pool, plus the two
# mapping suites, single-threaded, so that every Release check of the
# spatial-grid searches also runs under each sanitizer. TSan excludes ASan by
# construction, so it needs its own tree; the remaining benches and
# the examples are skipped (their byte-identity gates ran above, and a
# TSan'd 10^7-request tier would dominate CI wall-clock without adding
# interleaving coverage the suites don't already have).
cmake -B "${TSAN_BUILD_DIR}" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPOINTACC_TSAN=ON \
    -DPOINTACC_WERROR=ON \
    -DPOINTACC_BUILD_BENCH=ON \
    -DPOINTACC_BUILD_EXAMPLES=OFF

cmake --build "${TSAN_BUILD_DIR}" -j "${JOBS}" \
    --target test_executor test_runtime_properties test_mapping test_mpu \
             bench_serving

"${TSAN_BUILD_DIR}/test_executor" --gtest_repeat=20
"${TSAN_BUILD_DIR}/test_mapping"
"${TSAN_BUILD_DIR}/test_mpu"

"${TSAN_BUILD_DIR}/test_runtime_properties" --threads 4

for sweep in ${TSAN_SWEEPS}; do
    "${TSAN_BUILD_DIR}/bench_serving" --sweep "${sweep}" --smoke \
        --threads 4 --no-json
done
