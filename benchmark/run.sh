#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark and the server it drives
# (one package, two executables), then run the benchmark with the given
# arguments. Run from the repository root.
set -euo pipefail
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/dyncomp-benchmark" "$@"
