#!/usr/bin/env bash
# `optirec inspect "$@"`, for the smoke jobs: same output, same exit status,
# except that it fails when the reader reports skipping anything. Every
# journal these jobs inspect was written by this same build, so a skipped
# line or key means the reader lags its writer — the drift the single
# telemetry schema exists to rule out.
set -uo pipefail
stderr=$(mktemp)
cargo run --release --bin optirec -- inspect "$@" 2>"$stderr"
status=$?
cat "$stderr" >&2
if grep -q '^note: skipped .* unknown journal lines' "$stderr"; then
  echo "error: optirec inspect skipped part of a journal this build wrote" >&2
  exit 1
fi
exit "$status"
