#!/usr/bin/env bash
# Builds the benchmark if needed and runs it with the given arguments.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload simulate --seed 1 --seconds 10 --trace 0
#
# The source paths compiled into the binary are remapped to one fixed
# prefix, so every checkout builds the same binary wherever it lives.
# Without it the checkout's path changes the code layout, and with it a
# warm `suite` pass by up to 65% (measured on a 2-vCPU Xeon VM: the same
# source built under two directories read 150 ms and 250 ms).
set -euo pipefail
export RUSTFLAGS="${RUSTFLAGS:-} --remap-path-prefix=$(pwd)=/isos"
exec cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- "$@"
