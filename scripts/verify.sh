#!/usr/bin/env sh
# Hermetic verification: the workspace must build, test and regenerate the
# paper's tables entirely offline (no crates.io access, no network).
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline (workspace + examples)"
# --examples matters: the server smoke gate below runs
# target/release/examples/serve directly, which a bare build would
# leave stale.
cargo build --release --offline --examples
cargo build --release --offline

echo "==> engine-switch gate: no DSE_*_ENGINE selector in code, examples or tests"
# Oracles are selected in code (analyze_with_engine, Explorer::set_engine),
# never by environment; release code reads no engine switch.
if grep -rnE 'DSE_(WIRE|EXPLORER|ANALYZE)_ENGINE' crates src examples tests; then
    echo "    an engine env switch is back; select oracles explicitly instead"
    exit 1
fi

echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

echo "==> cargo clippy --all-targets --offline -- -D warnings"
cargo clippy --all-targets --offline -- -D warnings

echo "==> chaos gate: resilience suite under extra fixed seeds"
for seed in 3 11 1999; do
    echo "    DSE_CHAOS_SEED=$seed"
    DSE_CHAOS_SEED=$seed cargo test -q --offline --test resilience > /dev/null
done

echo "==> chaos soak gate: daemon guard suite, fault-injected sockets, seeds x threads"
# The soak drives live TCP sessions through seeded fault-injecting
# streams (drops, partial writes, stalls), kills and reboots the
# engine, and asserts recovered reports are byte-identical to a
# fault-free oracle with no acknowledged decision lost — at every
# seed/thread-count combination.
for seed in 3 11 1999; do
    for threads in 1 2 8; do
        echo "    DSE_CHAOS_SEED=$seed DSE_THREADS=$threads"
        DSE_CHAOS_SEED=$seed DSE_THREADS=$threads \
            cargo test -q --offline --test guard > /dev/null
    done
done

echo "==> determinism gate: full suite at DSE_THREADS=1 and DSE_THREADS=8"
# Debug builds also arm the pool's no-leak assertion: par::scope asserts
# live workers never exceed the configured pool after every drained scope.
for threads in 1 8; do
    echo "    DSE_THREADS=$threads"
    DSE_THREADS=$threads cargo test -q --offline --workspace > /dev/null
done

echo "==> perf gate (soft): bench medians vs BENCH_baseline.json"
if [ -f BENCH_baseline.json ]; then
    DSE_BENCH_FAST=1 cargo run --release --offline -p bench --bin baseline -- \
        --compare BENCH_baseline.json \
        || echo "    warning: bench medians regressed past the gate (soft gate, not fatal)"
else
    echo "    warning: BENCH_baseline.json missing, skipping comparison"
fi

echo "==> static analysis of all shipped design spaces (must be error-free)"
cargo run --release --offline --example diagnose

echo "==> solver gate: >=10^6-combination synthetic space under the propagation engine (budget 90s)"
SOLVE_START=$(date +%s)
cargo run --release --offline --example diagnose -- --synthetic --stats > /dev/null
SOLVE_ELAPSED=$(( $(date +%s) - SOLVE_START ))
if [ "$SOLVE_ELAPSED" -gt 90 ]; then
    echo "    solver gate took ${SOLVE_ELAPSED}s (budget 90s)"
    exit 1
fi
echo "    synthetic space diagnosed in ${SOLVE_ELAPSED}s"

echo "==> core-store scale gate: 1M-core generator build + query (budget 120s)"
SCALE_START=$(date +%s)
cargo run --release --offline --example store_scale -- --cores 1000000 > /dev/null
SCALE_ELAPSED=$(( $(date +%s) - SCALE_START ))
if [ "$SCALE_ELAPSED" -gt 120 ]; then
    echo "    scale gate took ${SCALE_ELAPSED}s (budget 120s)"
    exit 1
fi
echo "    1M-core store built and queried in ${SCALE_ELAPSED}s"

echo "==> wire gate: counting allocator, decoder parity, golden transcripts"
# The zero-copy wire path must stay allocation-free in steady state at
# any pool size (the metered regions never cross the pool, so the
# counts must hold at DSE_THREADS=1 and =8); the hot and tree decoders
# must agree, and the golden and fuzzed streams must answer exactly as
# their golden transcripts record.
for threads in 1 8; do
    echo "    DSE_THREADS=$threads wire_alloc"
    DSE_THREADS=$threads cargo test -q --offline --test wire_alloc > /dev/null
done
echo "    json_wire (codec parity + golden transcripts)"
cargo test -q --offline --test json_wire > /dev/null

echo "==> server smoke gate: scripted conversation vs golden transcript"
SMOKE_DIR=$(mktemp -d)
./target/release/examples/serve --journal-dir "$SMOKE_DIR/journals" \
    > "$SMOKE_DIR/serve.out" 2>/dev/null &
SERVE_PID=$!
tries=0
while ! grep -q "^listening on " "$SMOKE_DIR/serve.out" 2>/dev/null; do
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
        echo "    server did not come up"
        kill "$SERVE_PID" 2>/dev/null || true
        exit 1
    fi
    sleep 0.1
done
SMOKE_ADDR=$(sed -n 's/^listening on //p' "$SMOKE_DIR/serve.out")
./target/release/examples/dse_client "$SMOKE_ADDR" \
    < tests/golden/server_smoke.script > "$SMOKE_DIR/transcript.txt"
# The script ends with a shutdown request: the daemon must drain cleanly.
wait "$SERVE_PID"
diff -u tests/golden/server_smoke.golden "$SMOKE_DIR/transcript.txt"
rm -rf "$SMOKE_DIR"
echo "    transcript matches golden, clean shutdown"

echo "==> socket benchmark: dsebench builds against the server API and its smoke test passes"
# A package of its own (not a workspace member), so the workspace build
# and tests above never compile it.
cargo build --release --offline --manifest-path dsebench/Cargo.toml
cargo test --release --offline --manifest-path dsebench/Cargo.toml

echo "==> regenerating tables_output.txt"
cargo run --release --offline -p bench --bin tables -- all > tables_output.txt

echo "verify: OK"
