#!/usr/bin/env bash
# Repo gate: invariant lint, format, lints, docs, full test suite,
# examples, perfbench and criterion smoke runs. Opt-in concurrency-audit
# lanes:
#   OCDD_CI_LOOM=1  — loom interleaving models (scheduler + epoch cache)
#   OCDD_CI_TSAN=1  — ThreadSanitizer pass (needs a nightly toolchain)
#   OCDD_CI_MIRI=1  — Miri pass over ocdd-core (needs the miri component)
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "==> ocdd-lint fixture suite (exact-diagnostic self-tests)"
# The linter's own tests run first: fixture files pinned to exact spans and
# witnesses, the masking/tokenizer property differential, and the binary
# e2e over throwaway mini-workspaces. A linter that drifted from its
# fixtures must not gate the workspace.
cargo test -q -p ocdd-lint

echo "==> ocdd-lint (workspace invariant rules)"
# Hard gate before clippy: panic-reachability over the call graph,
# lock-order acyclicity, determinism taint, the loop-aware dataflow rules
# (unprobed-loop, schema-parity, hot-loop-alloc — DESIGN.md §15) and the
# line rules atomics-audit and lock-discipline (DESIGN.md §10–§11). Clock,
# spawn and io confinement (the clippy.toml files) and the narrowing-cast
# checks (cast_possible_truncation, cast_possible_wrap and cast_sign_loss,
# crate attributes of core, relation and iosafe — DESIGN.md §10.3) are
# clippy's, gated by the clippy step below. One scan writes the stable JSON
# findings document to results/ for revision-to-revision diffing
# (scripts/lint_diff.sh), a second its SARIF twin for code-review
# annotation UIs, and the per-rule counts are gated against the checked-in
# baseline. --out writes atomically (tmp+fsync+rename) so a killed CI run
# never leaves a truncated findings document behind.
cargo run -q -p ocdd-lint -- --emit json --out results/lint_findings.json || true
cargo run -q -p ocdd-lint -- --emit sarif --out results/lint_findings.sarif || true
lint_rules="$(sed -n 's/^  "rules": {\(.*\)},$/\1/p' results/lint_findings.json)"
if [[ -z "$lint_rules" ]]; then
    echo "ocdd-lint: could not parse the per-rule counts in results/lint_findings.json"
    exit 1
fi
# The baseline is one "<rule> <count>" line per rule (LC_ALL=C sorted).
# Gate each rule against it: a rule above its baseline — or a rule the
# baseline has never heard of — fails the run.
lint_regressed=0
while read -r rule count; do
    baseline="$(LC_ALL=C awk -v r="$rule" '$1 == r { print $2 }' results/lint_baseline.txt)"
    if [[ -z "$baseline" ]]; then
        echo "ocdd-lint: rule \`$rule\` is missing from results/lint_baseline.txt"
        lint_regressed=1
    elif [[ "$count" -gt "$baseline" ]]; then
        echo "ocdd-lint: $rule has $count finding(s), baseline $baseline"
        lint_regressed=1
    fi
done < <(echo "$lint_rules" | tr ',' '\n' | sed -n 's/^ *"\([a-z-]*\)": \([0-9]*\)$/\1 \2/p')
if [[ "$lint_regressed" -ne 0 ]]; then
    cargo run -q -p ocdd-lint || true # re-run for the human-readable witnesses
    exit 1
fi
echo "ocdd-lint: per-rule counts within baseline"

echo "==> ocdd-lint --fix-allows (stale-annotation dry run)"
# Allows whose findings were since fixed must not accumulate: the dry run
# lists them; any hit fails the gate (run --fix-allows --apply to clean).
stale_out="$(cargo run -q -p ocdd-lint -- --fix-allows)"
echo "$stale_out"
echo "$stale_out" | grep -q "^ocdd-lint: 0 stale allow(s) found" || {
    echo "ocdd-lint: stale allows accumulate — run cargo run -q -p ocdd-lint -- --fix-allows --apply"
    exit 1
}

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
# cargo keeps a crate's clippy verdict until the crate's sources change,
# and a clippy.toml is not one of them: a config added, edited or removed
# would pass unchecked on a warm target dir. Fingerprint every clippy
# config (paths and contents); when it differs from the fingerprint of the
# last clean run, recorded under target/, touch every workspace crate root
# so clippy lints the whole workspace again under the new configs.
clippy_configs="$(find . \( -path ./.git -o -path ./target -o -path ./.bench_build \
    -o -path ./perfbench/target \) -prune -o \( -name clippy.toml -o -name .clippy.toml \) \
    -print | LC_ALL=C sort)"
clippy_fingerprint="$(for config in $clippy_configs; do
    echo "$config"
    cat "$config"
done | sha256sum | cut -d' ' -f1)"
clippy_recorded=target/clippy-configs.sha256
if [[ "$(cat "$clippy_recorded" 2>/dev/null)" != "$clippy_fingerprint" ]]; then
    echo "clippy configs changed since the last clean run: linting every crate again"
    find src crates \( -name lib.rs -o -name main.rs \) -exec touch {} +
fi
cargo clippy --workspace --all-targets -- -D warnings
mkdir -p target
echo "$clippy_fingerprint" >"$clippy_recorded"

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> cargo test"
cargo test --workspace -q

echo "==> examples (each run once)"
# cargo test only compiles the examples; running them sends, among
# others, the demotion, class-split and OD-breaking batches of
# examples/incremental.rs through the append path.
for example in examples/*.rs; do
    example="$(basename "$example" .rs)"
    cargo run -q --example "$example" >/dev/null
    echo "example $example: ok"
done

echo "==> cargo test --features fault-injection"
cargo test -q --features fault-injection

echo "==> fault-injection stress iteration (RUST_BACKTRACE=1)"
RUST_BACKTRACE=1 cargo test -q --features fault-injection --test fault_injection

echo "==> work-stealing differential suite (workers 1 and 4 vs Sequential)"
# The determinism matrix and proptest differentials pin WorkStealing(1) and
# WorkStealing(4) — byte-identical results, budget truncation and fault
# quarantine included; any divergence fails the run.
cargo test -q --test parallel_determinism
cargo test -q --test property_based workstealing
cargo test -q --test property_based sample

echo "==> checkpoint/resume crash smoke (SIGKILL + ocdd --resume)"
# A real child process is SIGKILLed mid-search and resumed from its newest
# dump; the resumed JSON report must match an uninterrupted reference
# byte-for-byte once the wall-clock/checkpoint-counter keys are stripped.
# The exact search runs first, then the approximate pipeline on the same
# table (its report has no wall-clock or checkpoint key, so nothing is
# stripped). (The in-process kill-at-every-level sweeps live in
# parallel_determinism and the core suite; tests/crash_resume.rs is the
# cargo-test twin of this lane.)
cargo build -q --features fault-injection
OCDD_BIN=target/debug/ocdd
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
"$OCDD_BIN" dataset hepatitis --rows 150 >"$SMOKE_DIR/table.csv"
# resume_smoke <tag> [profile flags...]: an uninterrupted reference in
# $SMOKE_DIR/<tag>/ref.json, the SIGKILLed-and-resumed report in res.json.
resume_smoke() {
    local tag="$1" dir="$SMOKE_DIR/$1"
    shift
    mkdir -p "$dir"
    "$OCDD_BIN" profile "$SMOKE_DIR/table.csv" "$@" --json --out "$dir/ref.json" >/dev/null
    "$OCDD_BIN" profile "$SMOKE_DIR/table.csv" "$@" \
        --checkpoint-dir "$dir/ckpt" --checkpoint-keep 0 \
        --check-delay-ms 3 --json --out "$dir/crash.json" >/dev/null 2>&1 &
    local pid=$!
    for _ in $(seq 1 600); do
        if compgen -G "$dir/ckpt/ckpt-*.json" >/dev/null; then break; fi
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "resume smoke ($tag): checkpointed run finished before any dump was seen"
            exit 1
        fi
        sleep 0.1
    done
    sleep 0.3 # let it get into the level so the kill lands mid-work
    kill -9 "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
    "$OCDD_BIN" profile "$SMOKE_DIR/table.csv" "$@" --resume "$dir/ckpt" \
        --json --out "$dir/res.json" >/dev/null
}
resume_smoke exact
normalize='s/"elapsed_ms":[0-9.]*,//; s/"checkpoint":{[^}]*},//'
sed "$normalize" "$SMOKE_DIR/exact/ref.json" >"$SMOKE_DIR/exact/ref.norm"
sed "$normalize" "$SMOKE_DIR/exact/res.json" >"$SMOKE_DIR/exact/res.norm"
diff "$SMOKE_DIR/exact/ref.norm" "$SMOKE_DIR/exact/res.norm" || {
    echo "resume smoke: resumed report differs from the uninterrupted reference"
    exit 1
}
"$OCDD_BIN" dump-dot "$SMOKE_DIR/exact/ckpt" --csv "$SMOKE_DIR/table.csv" |
    grep -q '^digraph ocdd_lattice {' || {
    echo "resume smoke: dump-dot did not emit a DOT digraph"
    exit 1
}
resume_smoke approx --algo approx --sample 60 --epsilon 0.05
diff "$SMOKE_DIR/approx/ref.json" "$SMOKE_DIR/approx/res.json" || {
    echo "resume smoke: resumed approximate report differs from the uninterrupted reference"
    exit 1
}
echo "resume smoke: SIGKILLed exact and approximate runs resumed byte-identically; dump-dot ok"

if [[ "${OCDD_CI_LOOM:-0}" == "1" ]]; then
    echo "==> loom interleaving models (ocdd-core --features loom)"
    # Swaps the scheduler/epoch-cache primitives for the model-checking
    # shims and explores every interleaving of the loom_models tests; the
    # rest of the ocdd-core suite runs against the passthrough primitives.
    cargo test -q -p ocdd-core --features loom
else
    echo "==> loom lane skipped (set OCDD_CI_LOOM=1 to enable)"
fi

if [[ "${OCDD_CI_TSAN:-0}" == "1" ]]; then
    echo "==> ThreadSanitizer lane (nightly + rust-src)"
    # -Zbuild-std needs the nightly rust-src component so std itself is
    # instrumented (uninstrumented std yields false positives).
    if rustup toolchain list 2>/dev/null | grep -q nightly &&
        rustup component list --toolchain nightly 2>/dev/null |
        grep -q "^rust-src (installed)"; then
        host="$(rustc -vV | sed -n 's/^host: //p')"
        for filter in scheduler shared_cache; do
            RUSTFLAGS="-Zsanitizer=thread" \
                cargo +nightly test -q -p ocdd-core -Zbuild-std \
                --target "$host" --lib "$filter" ||
                {
                    echo "TSan lane failed ($filter)"
                    exit 1
                }
        done
    else
        echo "TSan lane skipped: nightly toolchain with rust-src not installed"
    fi
else
    echo "==> TSan lane skipped (set OCDD_CI_TSAN=1 to enable)"
fi

if [[ "${OCDD_CI_MIRI:-0}" == "1" ]]; then
    echo "==> Miri lane (nightly + miri component)"
    if rustup component list --toolchain nightly 2>/dev/null |
        grep -q "^miri.*(installed)"; then
        for filter in scheduler shared_cache; do
            cargo +nightly miri test -q -p ocdd-core --lib "$filter" ||
                {
                    echo "Miri lane failed ($filter)"
                    exit 1
                }
        done
    else
        echo "Miri lane skipped: miri component not installed"
    fi
else
    echo "==> Miri lane skipped (set OCDD_CI_MIRI=1 to enable)"
fi

echo "==> sample-first triage smoke (bench_approx)"
# A scaled-down run of the BENCH_approx.json comparison: the sampled
# pipeline must still match the exhaustive baseline (F1) and save full
# scans on the smoke workload. The smoke document goes to a temporary
# file; the tracked BENCH_approx.json at the root is the 1M-row record.
approx_smoke_json="$(mktemp)"
cargo run -q -p ocdd-bench --bin bench_approx -- \
    --rows 20000 --sample 2000 --out "$approx_smoke_json"
grep -q '"headline":' "$approx_smoke_json" || {
    echo "bench_approx smoke: no headline object in the smoke document"
    exit 1
}
grep -q '"f1": 1.000000' "$approx_smoke_json" || {
    echo "bench_approx smoke: sampled pipeline diverged from the exhaustive baseline"
    exit 1
}
rm -f "$approx_smoke_json"

echo "==> perfbench smoke + work-counter gate (every workload, seed 1, 1 s, untraced)"
# perfbench is a workspace of its own, so `cargo test --workspace` never
# compiles it: an API change in ocdd-relation or ocdd-core could break the
# benchmark unnoticed. Build it and run each workload briefly; the last
# stdout line of every run must report a correct run with no failures.
# The line before it carries the run's deterministic work: the
# reduction's check count and the `counters` of both configurations.
# Every counter not under `observed.` (those follow cache hits and worker
# timing) must equal its line in results/perfbench_counters.txt, one
# "<workload> <counter> <value>" line each, so a change in checks, sorts
# or rows scanned fails here unless the same change re-records the file.
# Building perfbench rewrites its tracked Cargo.lock (the lock still lists
# a deleted shim); keep a copy and put it back however the smoke ends.
perfbench_lock="$(mktemp)"
cp perfbench/Cargo.lock "$perfbench_lock"
restore_perfbench_lock() {
    cp "$perfbench_lock" perfbench/Cargo.lock
    rm -f "$perfbench_lock"
}
trap 'restore_perfbench_lock; rm -rf "$SMOKE_DIR"' EXIT
counters_now="$(mktemp)"
for workload in dense_search tall_ingest approx_sample append_stream; do
    perfbench_out="$(CARGO_TARGET_DIR=.bench_build cargo run --quiet --offline --release \
        --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0)"
    perfbench_last="$(tail -n 1 <<<"$perfbench_out")"
    if ! grep -q '"correct": true' <<<"$perfbench_last" ||
        ! grep -q '"failed": 0,' <<<"$perfbench_last"; then
        echo "perfbench smoke: $workload did not report a correct run with 0 failures:"
        echo "$perfbench_last"
        exit 1
    fi
    echo "perfbench smoke: $workload correct, 0 failed"
    perfbench_work="$(tail -n 2 <<<"$perfbench_out" | head -n 1)"
    sed -n 's/.*"reduction_checks": \([0-9a-z]*\),.*/reduction_checks \1/p' \
        <<<"$perfbench_work" | sed "s/^/$workload /" >>"$counters_now"
    for config in engine faithful; do
        sed -n "s/.*\"$config\": {\([^}]*\)}.*/\1/p" <<<"$perfbench_work" | tr ',' '\n' |
            sed -n 's/^ *"\([^"]*\)": \([0-9]*\)$/\1 \2/p' | sed '/^observed\./d' |
            sed "s/^/$workload $config./" >>"$counters_now"
    done
done
restore_perfbench_lock
trap 'rm -rf "$SMOKE_DIR"' EXIT
if ! diff results/perfbench_counters.txt "$counters_now"; then
    # Re-recording is the answer to a kernel-count change, not to a change
    # in the search's own work: name a drift outside `*.kernels.*` (the
    # reduction's checks, checks, candidates, levels, approx.*,
    # incremental.*) on its own, so a re-record cannot hide it.
    if ! search_drift="$(diff <(grep -v '\.kernels\.' results/perfbench_counters.txt) \
        <(grep -v '\.kernels\.' "$counters_now"))"; then
        echo "perfbench counters: the search work drifted, not only kernel counts:"
        echo "$search_drift"
        echo "A re-record must explain why the search checks or finds something else."
    fi
    echo "perfbench counters: the work above (< recorded, > this run) drifted from"
    echo "results/perfbench_counters.txt. If the change is intended, re-record with"
    echo "  cp $counters_now results/perfbench_counters.txt"
    exit 1
fi
rm -f "$counters_now"
echo "perfbench counters: every workload's work matches results/perfbench_counters.txt"

echo "==> criterion smoke (cargo bench -- --test)"
cargo bench -p ocdd-bench -- --test

echo "==> ci.sh: all green"
