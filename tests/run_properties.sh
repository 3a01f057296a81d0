#!/usr/bin/env bash
# Property-suite entry point: builds the `property_suites` target (every
# suite registered through rapid_add_property_test in tests/CMakeLists.txt)
# and runs the `property`-labeled tests through ctest in one shot, with
# the seed policy printed up front so a red run is immediately
# replayable.
#
# Usage:
#   tests/run_properties.sh                      # default (baked-in) seeds
#   RAPID_PROPTEST_SEED=1234 tests/run_properties.sh   # replay one seed
#
# Every failure message printed by a property test already carries the
# seed that produced it; export RAPID_PROPTEST_SEED with that value (and
# optionally narrow to one binary/--gtest_filter, see tests/proptest.h)
# to reproduce the exact schedule, shrink path included.
#
# Requires a configured build tree (default ./build, override with
# BUILD_DIR).

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${BUILD_DIR:-$repo_root/build}"

if [[ ! -d "$build_dir" ]]; then
  echo "error: build tree '$build_dir' not found (run cmake first)" >&2
  exit 1
fi

if [[ -n "${RAPID_PROPTEST_SEED:-}" ]]; then
  echo "== seed: RAPID_PROPTEST_SEED=$RAPID_PROPTEST_SEED (overrides every ForAll seed)"
else
  echo "== seed: per-test defaults (failures print the seed to replay)"
fi

cmake --build "$build_dir" --parallel "$(nproc)" -t property_suites

# -L property selects exactly the suites registered through
# rapid_add_property_test; the env seed (if any) propagates to the tests.
(cd "$build_dir" && ctest -L property --output-on-failure "$@")

echo "== property suites passed"
if [[ -n "${RAPID_PROPTEST_SEED:-}" ]]; then
  echo "== replayed under RAPID_PROPTEST_SEED=$RAPID_PROPTEST_SEED"
fi
