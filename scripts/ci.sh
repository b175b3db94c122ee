#!/usr/bin/env bash
# Full CI pass: tier-1 tests + differential verification smoke, first in a
# plain release build, then under the two sanitizer presets
# (QFAB_SANITIZE=address -> ASan+UBSan, QFAB_SANITIZE=thread -> TSan).
# Every preset runs the kernel build CPUID picks; the tier-equivalence tests
# (test_batch) run the portable double build beside it in one process.
set -euo pipefail
cd "$(dirname "$0")/.."

run_preset() {
  local name="$1"
  shift
  local builddir="build-ci-${name}"
  echo "== ${name}: configure =="
  cmake -B "${builddir}" -S . "$@" >/dev/null
  echo "== ${name}: build =="
  cmake --build "${builddir}" -j "$(nproc)" >/dev/null
  echo "== ${name}: tier-1 tests =="
  (cd "${builddir}" && ctest --output-on-failure -j "$(nproc)")
  echo "== ${name}: verify smoke (ctest -L verify) =="
  (cd "${builddir}" && ctest -L verify --output-on-failure)
}

# Crash a bounded figure run mid-sweep with an injected fault, resume it
# from the checkpoint journal, and require the CSVs to match an
# uninterrupted reference run byte for byte (the durability contract;
# DESIGN.md §10). Exit 86 is the fault injector's distinctive crash code.
# Optional arguments: the instance count (default 3) and a pool thread
# count for the crash and the resume (QFAB_THREADS; the reference then
# runs on one thread). With more work units per panel than threads, the
# crash lands while other threads still hold units.
crash_resume_smoke() {
  local name="$1"
  local instances="${2:-3}"
  local threads="${3:-}"
  local builddir="build-ci-${name}"
  local smokedir="${builddir}/crash_resume_smoke_${instances}${threads:+_t${threads}}"
  local flags=(--instances "${instances}" --traj 3 --shots 64 --depths 1,2
               --rates1q 0.4 --rates2q 1.0 --quiet)
  local ref_threads="${threads:+QFAB_THREADS=1}"
  local run_threads="${threads:+QFAB_THREADS=${threads}}"
  echo "== ${name}: crash-resume smoke (${instances} instances${threads:+, ${threads} threads}) =="
  rm -rf "${smokedir}"
  mkdir -p "${smokedir}"
  (
    cd "${smokedir}"
    env ${ref_threads} ../bench/fig1_qfa_sweep "${flags[@]}" --csv ref \
      >/dev/null
    set +e
    QFAB_FAULT=crash-after-unit=2 env ${run_threads} ../bench/fig1_qfa_sweep \
      "${flags[@]}" --csv ckpt --checkpoint ckpt >/dev/null 2>&1
    local crash_rc=$?
    set -e
    if [[ "${crash_rc}" -ne 86 ]]; then
      echo "crash-resume smoke: expected injected-crash exit 86, got ${crash_rc}" >&2
      exit 1
    fi
    env ${run_threads} ../bench/fig1_qfa_sweep "${flags[@]}" --csv ckpt \
      --checkpoint ckpt --resume >/dev/null
    for ref in ref_*.csv; do
      cmp "${ref}" "ckpt${ref#ref}"
    done
  )
  echo "== ${name}: crash-resume smoke: resumed CSVs match reference =="
}

# The figure CSVs at default flags must match the committed goldens in
# results/golden/ byte for byte, on whichever kernel build the host runs
# (the libraries never contract a*b+c, so every build writes the same
# bytes). This is the behaviour contract every engine change keeps.
figure_goldens() {
  local name="$1"
  local builddir="build-ci-${name}"
  local outdir="${builddir}/figure_goldens"
  echo "== ${name}: figure CSVs vs results/golden =="
  rm -rf "${outdir}"
  mkdir -p "${outdir}"
  (
    cd "${outdir}"
    ../bench/fig1_qfa_sweep --csv fig1 --quiet >/dev/null
    ../bench/fig2_qfm_sweep --csv fig2 --quiet >/dev/null
  )
  local golden got
  for golden in results/golden/fig*.csv; do
    got="${outdir}/$(basename "${golden}")"
    if ! cmp -s "${golden}" "${got}"; then
      echo "${name}: $(basename "${golden}") differs from its golden:" >&2
      diff "${golden}" "${got}" >&2 || true
      exit 1
    fi
  done
  echo "== ${name}: figure CSVs match the goldens =="
}

# A malformed command line is a usage error: exit 2 with a message, like
# an unknown flag, never an abort. Each case is "<bench> <args>".
figure_usage_errors() {
  local name="$1"
  local builddir="build-ci-${name}"
  echo "== ${name}: bench usage errors exit 2 =="
  local bench args case rc
  local cases=("fig1_qfa_sweep foo" "bench_sweep --reps abc")
  for bench in fig1_qfa_sweep fig2_qfm_sweep; do
    for args in "--depths full" "--shots abc" "--n 8" "--precision half"; do
      cases+=("${bench} ${args} --quiet")
    done
  done
  for case in "${cases[@]}"; do
    bench="${case%% *}"
    args="${case#* }"
    set +e
    # shellcheck disable=SC2086
    "./${builddir}/bench/${bench}" ${args} >/dev/null 2>&1
    rc=$?
    set -e
    if [[ "${rc}" -ne 2 ]]; then
      echo "${case}: expected exit 2, got ${rc}" >&2
      exit 1
    fi
  done
}

# Bounded batched-throughput smoke against the checked-in baseline: rerun
# the batch={4,8,16} rows of bench_batch — the end-to-end sweep points AND
# the "<case>_replay" lane-scaling rows — and fail if any (case, simd,
# precision, batch) row's inst_per_sec drops more than 30% below
# results/BENCH_batch.json. The 30% band plus median-of-reps timing
# absorbs normal scheduler noise; the baseline is host-specific, so set
# QFAB_SKIP_PERF=1 on other machines.
perf_smoke() {
  local name="$1"
  local builddir="build-ci-${name}"
  if [[ "${QFAB_SKIP_PERF:-0}" == "1" ]]; then
    echo "== ${name}: perf smoke skipped (QFAB_SKIP_PERF=1) =="
    return
  fi
  if ! command -v python3 >/dev/null 2>&1; then
    echo "== ${name}: perf smoke skipped (no python3) =="
    return
  fi
  echo "== ${name}: batched perf smoke (bounded) =="
  "./${builddir}/bench/bench_batch" --instances 8 --reps 3 --batches 4,8,16 \
    --out "${builddir}/BENCH_batch_smoke.json" >/dev/null
  python3 - "${builddir}/BENCH_batch_smoke.json" results/BENCH_batch.json <<'PY'
import json, sys
smoke = json.load(open(sys.argv[1]))
ref = json.load(open(sys.argv[2]))
key = lambda r: (r["name"], r["simd"], r["precision"], r["batch"])
ref_rows = {key(r): r for r in ref["cases"]}
worst = None
for row in smoke["cases"]:
    base = ref_rows.get(key(row))
    if base is None:
        continue
    ratio = row["inst_per_sec"] / base["inst_per_sec"]
    if worst is None or ratio < worst[0]:
        worst = (ratio, key(row))
    if ratio < 0.7:
        sys.exit("perf regression: %s: %.1f inst/sec vs baseline %.1f"
                 " (%.0f%% drop)" % (key(row), row["inst_per_sec"],
                                     base["inst_per_sec"], 100 * (1 - ratio)))
if worst is None:
    sys.exit("perf smoke: no overlapping rows with the baseline")
print("perf smoke: worst ratio %.2fx at %s" % worst)
PY
}

# The figure-panel benchmark's own tests, then one short gated run of each
# workload at the default seed, where every panel must match the scalar
# reference and the golden CSV: a kernel change that moves a golden byte
# fails here instead of in the benchmark pipeline. panelbench builds its
# own tree (.bench_build/panelbench) from this checkout's sources.
panelbench_smoke() {
  echo "== plain: panelbench tests =="
  python3 panelbench/tests/test_run.py
  for workload in qfa8-1q qfm4-2q-auto qfa8-2to2-2cpu; do
    echo "== plain: panelbench ${workload} (gated, 1 s) =="
    python3 panelbench/run.py --workload "${workload}" --seed 211209349 \
      --seconds 1 --trace 0 >/dev/null
  done
}

run_preset plain
figure_usage_errors plain
figure_goldens plain
panelbench_smoke
echo "== plain: bench_sweep smoke (bounded) =="
./build-ci-plain/bench/bench_sweep --instances 4 --traj 6 --shots 256 \
  --reps 1 --out build-ci-plain/BENCH_sweep_smoke.json
perf_smoke plain
crash_resume_smoke plain
crash_resume_smoke plain 17 4
run_preset asan -DQFAB_SANITIZE=address
crash_resume_smoke asan
crash_resume_smoke asan 17 4
run_preset tsan -DQFAB_SANITIZE=thread
crash_resume_smoke tsan 17 4

echo "CI: all presets green"
