#!/usr/bin/env bash
# Repo CI: formatting, lints, then the tier-1 gate (release build + tests).
# Run from the repo root: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== strict clippy: analyzer crates must be panic-free (unwrap/expect)"
# augem-cost, augem-prof, and augem-depan run inside tuning sweeps; a
# panic there takes the whole sweep down. Their crate roots deny
# unwrap/expect outside tests; this tier keeps the denial honest under
# -D warnings.
# augem-serve is a long-running daemon; a stray unwrap is a crashed
# worker, so it joins the panic-free tier.
cargo clippy -p augem-cost -p augem-prof -p augem-depan -p augem-serve --lib -- -D warnings

echo "== tier-1: cargo build --release --workspace"
# --workspace: the repo root is itself a package, so a bare `cargo build`
# would skip member-crate binaries (augem-gen, figures) used below.
cargo build --release --workspace

echo "== tier-1: cargo test -q"
cargo test -q

echo "== sweep + facade unit tests: crash/resume, breaker, prune-resume, degradation ladder"
# The root package's tests do not include member-crate unit tests; the
# tuner's single sweep and the facade's degradation chain live there,
# and crates/augem/tests/outcomes.rs pins every shipped kernel of
# Augem::run (release mode: it tunes 24 times).
cargo test --release -q -p augem-tune -p augem

echo "== remaining member-crate unit tests: every crate no other step tests"
# The root package's tests do not include member-crate unit tests; the
# crates tested by their own steps below are not repeated here.
cargo test --release -q -p augem-obs -p augem-resil -p augem-ir \
  -p augem-transforms -p augem-templates -p augem-opt -p augem-asm \
  -p augem-kernels -p augem-blas -p augem-cost -p augem-bench -p rayon

echo "== benchmark crate: builds against the facade and passes its tests"
# benchmark/ is outside the workspace, so a facade break would otherwise
# surface only when the benchmark pipeline runs.
cargo test --release --manifest-path benchmark/Cargo.toml

echo "== verify: static kernel verification across the kernel x ISA matrix"
# The generated winner for every kernel on every paper platform must pass
# the static verifier AND the translation validator (--verify runs both;
# a winner with any error diagnostic does not ship, a fallback does and
# augem-gen exits 3, and a warning count above --max-warnings exits 1).
for machine in sandybridge piledriver; do
  for kernel in gemm gemv ger axpy dot scal; do
    echo "-- verify $kernel on $machine"
    ./target/release/augem-gen --kernel "$kernel" --machine "$machine" \
      --verify --max-warnings 16 -o /dev/null
  done
done

echo "== verify: unit tests, structural matrix, negative suite, equivalence matrix + mutations"
# Every configuration the pipeline can produce — including the tuner's
# full candidate sets — must pass the structural verifier and carry a
# translation-validation proof; forged builds and injected defects must
# be refuted.
cargo test --release -q -p augem-verify

echo "== verify bench: per-kernel verification wall time"
./target/release/figures verify
test -f BENCH_verify.json

echo "== tune bench: decoded-engine throughput, decode cost, eval-cache hit rates + stage spans"
# The binary exits non-zero if the decoded engine is ever slower than
# the legacy interpreter, so this doubles as a perf-regression gate.
./target/release/figures tune
test -f BENCH_tune.json
grep -q '"schema": "augem.bench-tune/v1"' BENCH_tune.json
grep -q '"decode_us"' BENCH_tune.json
grep -q '"akg.sched"' BENCH_tune.json

echo "== prof: conservation + artifact matrix"
# Per-pc cycle attribution must telescope exactly to the aggregate
# timing report for every tuner candidate, and every kernel x machine
# artifact must round-trip through the augem.profile/v1 schema.
cargo test --release -q -p augem-prof

echo "== prof bench: profiled-replay overhead gate"
# The binary exits non-zero if the profiled replay ever costs more than
# 2x the plain replay — profiling must stay cheap enough to leave on.
./target/release/figures prof
test -f BENCH_prof.json
grep -q '"schema": "augem.bench-prof/v1"' BENCH_prof.json

echo "== prof smoke: augem-gen --profile writes a valid artifact"
PROF_TMP=$(mktemp -d)
./target/release/augem-gen --kernel gemm --machine sandybridge \
  --profile="$PROF_TMP/gemm.profile.json" -o /dev/null 2>"$PROF_TMP/listing.txt"
grep -q '"schema": "augem.profile/v1"' "$PROF_TMP/gemm.profile.json"
grep -q 'mmUnrolledCOMP' "$PROF_TMP/listing.txt"
rm -rf "$PROF_TMP"

echo "== cost: machine-checked bound soundness over the full candidate space"
# Static lower bound <= simulated cycles for EVERY tuner candidate of
# every kernel family on both paper machines. Zero exceptions.
cargo test --release -q --test cost_soundness

echo "== cost: pruned sweeps preserve every winner bit-for-bit"
cargo test --release -q --test cost_pruning

echo "== cost: P001 lint agrees with the dynamic profiler"
cargo test --release -q --test lint_prof_agreement

echo "== cost bench: prune rates, winner preservation, bound-phase cost"
# The binary exits non-zero if pruning changes any winner, the bound
# phases cost >= 1% of the exhaustive sweeps, the pruned sweeps take as
# long as the exhaustive ones, or no kernel prunes 25%.
./target/release/figures cost
test -f BENCH_cost.json
grep -q '"schema": "augem.bench-cost/v1"' BENCH_cost.json
grep -q '"winners_preserved": true' BENCH_cost.json
grep -q '"bound_phase_under_1pct": true' BENCH_cost.json
grep -q '"pruned_faster": true' BENCH_cost.json

echo "== lint smoke: --lint flags the Figure-13 chain, clean on the winner"
LINT_TMP=$(mktemp -d)
# The naive kernel carries the paper's scalar accumulator chain: on
# piledriver the chain exceeds the body's throughput bound and P001
# must fire statically.
./target/release/augem-gen --kernel gemm --machine piledriver \
  --naive --lint -o /dev/null 2>"$LINT_TMP/naive.txt" || true
grep -q 'P001' "$LINT_TMP/naive.txt"
# The tuned winner splits its accumulators: no performance warnings on
# either machine.
for machine in sandybridge piledriver; do
  ./target/release/augem-gen --kernel gemm --machine "$machine" \
    --lint -o /dev/null 2>"$LINT_TMP/tuned.txt"
  grep -q '0 performance warning(s)' "$LINT_TMP/tuned.txt"
done
rm -rf "$LINT_TMP"

echo "== depan: dependence analysis + legality checker (unit, property, mutation)"
# The mutation suite forges one illegal transform step per case; every
# forgery must be refuted with the expected T-rule.
cargo test --release -q -p augem-depan

echo "== depan: zero T-diagnostics across the tuner candidate matrix"
# Every candidate recipe of every kernel family on both paper machines
# must replay through the checker with no diagnostics at all.
cargo test --release -q --test depan_matrix

echo "== depan bench: false-rejection + analysis-cost gates"
# The binary exits non-zero if the legality filter rejects any current
# candidate, changes any winner, or costs >= 1% of sweep wall time.
./target/release/figures depan
test -f BENCH_depan.json
grep -q '"schema": "augem.bench-depan/v1"' BENCH_depan.json
grep -q '"zero_false_rejections": true' BENCH_depan.json
grep -q '"winners_preserved": true' BENCH_depan.json
grep -q '"check_phase_under_1pct": true' BENCH_depan.json

echo "== depan smoke: --check-transforms proves the winner's recipe"
DEPAN_TMP=$(mktemp -d)
./target/release/augem-gen --kernel gemm --machine sandybridge \
  --check-transforms -o /dev/null 2>"$DEPAN_TMP/tchecks.txt"
grep -q 'transform legality: 0 error(s)' "$DEPAN_TMP/tchecks.txt"
rm -rf "$DEPAN_TMP"

echo "== augem-gen: every analysis combines in one run"
# The flags map onto one Augem::run: the fault-tolerant sweep, the lints,
# the transform replay and the profiler combine, and so do --naive and
# --verify. Each run must exit 0.
COMBO_TMP=$(mktemp -d)
./target/release/augem-gen --kernel gemm --machine sandybridge --degrade --lint \
  --check-transforms --profile="$COMBO_TMP/p.json" -o /dev/null 2>"$COMBO_TMP/combo.txt"
grep -q 'transform legality: 0 error(s)' "$COMBO_TMP/combo.txt"
grep -q '0 performance warning(s)' "$COMBO_TMP/combo.txt"
grep -q '"schema": "augem.profile/v1"' "$COMBO_TMP/p.json"
./target/release/augem-gen --kernel gemm --machine piledriver --naive --verify -o /dev/null
rm -rf "$COMBO_TMP"

echo "== decoded engine: differential suite (decoded == legacy, bit for bit)"
cargo test --release -q --test sim_decoded_differential

echo "== simulator + machine unit tests: cache, scoreboard, decode, reference LRU"
# The root package's tests do not include member-crate tests; these
# cover the timing model's parts and the cache against its reference.
cargo test --release -q -p augem-sim -p augem-machine

echo "== resilience: fault-injection matrix"
# Every injection site x fault class scenario must terminate with a
# verified kernel or a typed degradation — never a panic or abort.
cargo test --release -q --test resilience

echo "== resilience: kill-and-resume smoke test"
# A run killed mid-sweep (--inject-crash) and resumed from its journal
# must reproduce the uninterrupted run's winner bit-for-bit.
RESIL_TMP=$(mktemp -d)
if ./target/release/augem-gen --kernel axpy --machine sandybridge \
  --checkpoint "$RESIL_TMP/axpy.jsonl" --inject-crash 3 -o "$RESIL_TMP/killed.s" 2>/dev/null; then
  echo "FAIL: crash-injected run should exit non-zero"; exit 1
fi
test -s "$RESIL_TMP/axpy.jsonl"
./target/release/augem-gen --kernel axpy --machine sandybridge \
  --checkpoint "$RESIL_TMP/axpy.jsonl" --resume -o "$RESIL_TMP/resumed.s"
./target/release/augem-gen --kernel axpy --machine sandybridge -o "$RESIL_TMP/reference.s"
cmp "$RESIL_TMP/resumed.s" "$RESIL_TMP/reference.s"
rm -rf "$RESIL_TMP"

echo "== serve: daemon fault matrix + protocol + store recovery"
# Worker panics, commit-window crashes, corrupt entries, deadline and
# queue shedding, breaker trips — every row must end in a typed
# response and a bit-identical recovered store. Single flight: a cold
# storm on one key runs one tune, and requests parked on it hold no
# worker. The serving loop's gates: >= 90% repeat-phase hit rate,
# exactly-once responses across a crash-restart, bit-identical
# recovery. Usage errors exit 2.
cargo test --release -q -p augem-serve

echo "== serve: journal-corruption property suite"
# Random truncations and single bit flips (any bit) of the one journal
# format, through the tune checkpoint and the kernel store: load never
# panics, fails only on a damaged header, loads only records that were
# appended, counts every drop, and converges. Regression tests pin an
# altered measurement, a torn tail before a resume and a high-bit flip.
cargo test --release -q --test journal_corruption

echo "== serve: kill-9-and-restart recovery smoke test"
# The daemon is killed (exit 9) in the middle of a commit's journal
# append. The restarted daemon must drop the torn record, re-serve the
# pending requests, and converge to a store bit-identical to a
# never-crashed run.
SERVE_TMP=$(mktemp -d)
cat > "$SERVE_TMP/reqs.jsonl" <<'EOF'
{"id":"k1","op":"tune","kernel":"daxpy","machine":"snb"}
{"id":"k2","op":"tune","kernel":"dscal","machine":"snb"}
{"id":"bye","op":"shutdown"}
EOF
set +e
./target/release/augem-serve --cache-dir "$SERVE_TMP/crashed" --workers 1 \
  --inject-crash-commit 1 < "$SERVE_TMP/reqs.jsonl" > "$SERVE_TMP/crashed.out" 2>/dev/null
code=$?
set -e
test "$code" -eq 9
# The crash left the header line and a torn, unterminated record...
test "$(ls "$SERVE_TMP/crashed/entries" | wc -l)" -eq 0
test "$(wc -l < "$SERVE_TMP/crashed/journal.jsonl")" -eq 1
test -n "$(tail -n +2 "$SERVE_TMP/crashed/journal.jsonl")"
# ...and the dying daemon answered nothing for the in-flight request.
! grep -q '"k1"' "$SERVE_TMP/crashed.out"
# Restart on the same store: recovery + re-serving every request.
./target/release/augem-serve --cache-dir "$SERVE_TMP/crashed" --workers 1 \
  < "$SERVE_TMP/reqs.jsonl" > "$SERVE_TMP/restarted.out" 2>/dev/null
grep -q '"k1"' "$SERVE_TMP/restarted.out"
grep -q '"k2"' "$SERVE_TMP/restarted.out"
# A clean daemon over the same requests defines the expected bytes.
./target/release/augem-serve --cache-dir "$SERVE_TMP/ref" --workers 1 \
  < "$SERVE_TMP/reqs.jsonl" > /dev/null 2>&1
diff -r "$SERVE_TMP/crashed" "$SERVE_TMP/ref"
rm -rf "$SERVE_TMP"

echo "CI OK"
