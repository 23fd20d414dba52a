#!/usr/bin/env bash
# Runs the detlint determinism static analyzer over the first-party tree
# (the same invocation the CI `detlint` job uses).
#
#   scripts/run_detlint.sh [build-dir] [-- extra detlint args]
#
# Builds the `detlint` target if the binary is missing, then lints
# src/, tools/, bench/ and examples/ in --strict mode (warnings fail too). Exit codes are
# detlint's own: 0 clean, 1 unsuppressed findings, 2 usage/IO error.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
shift || true
EXTRA_ARGS=()
if [[ "${1:-}" == "--" ]]; then
  shift
  EXTRA_ARGS=("$@")
fi

DETLINT="$BUILD_DIR/tools/detlint"
if [[ ! -x "$DETLINT" ]]; then
  if [[ ! -d "$BUILD_DIR" ]]; then
    echo "run_detlint.sh: $BUILD_DIR missing; configure first:" \
         "cmake -B $BUILD_DIR -S ." >&2
    exit 2
  fi
  cmake --build "$BUILD_DIR" --target detlint
fi

exec "$DETLINT" --strict "${EXTRA_ARGS[@]}" src tools bench examples
