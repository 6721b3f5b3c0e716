#!/usr/bin/env bash
# Runs every paper-artifact binary in its fast shape on one worker
# (`PSA_BENCH_FAST=1 <bin> --jobs 1`) and diffs its stdout against the
# committed golden in this directory.
#
#   benchmarks/golden/check.sh            # diff; exit 1 on any difference
#   benchmarks/golden/check.sh --update   # rewrite the goldens (see README.md)
#
# Stdout carries no wall-clock text (timing lines go to stderr), so the
# comparison is byte for byte.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
golden="$root/benchmarks/golden"
bins=(
    table1 table2 fig3 fig4 fig5 snr_compare mttd vt_sweep traces_sweep
    ablation monitor localize_atlas multi_localize bakeoff program_search
    fleet repro_all
)

update=0
case "${1:-}" in
    "") ;;
    --update) update=1 ;;
    *)
        echo "usage: $0 [--update]" >&2
        exit 2
        ;;
esac

cargo build --release --locked --quiet --manifest-path "$root/Cargo.toml" -p psa-bench --bins
target="${CARGO_TARGET_DIR:-$root/target}"

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

status=0
for bin in "${bins[@]}"; do
    PSA_BENCH_FAST=1 "$target/release/$bin" --jobs 1 >"$out/$bin.txt"
    if [ "$update" -eq 1 ]; then
        cp "$out/$bin.txt" "$golden/$bin.txt"
        echo "updated $bin"
    elif diff -u "$golden/$bin.txt" "$out/$bin.txt"; then
        echo "ok      $bin"
    else
        echo "DIFFERS $bin" >&2
        status=1
    fi
done
exit "$status"
