#!/usr/bin/env bash
# segments.sh MAX LOG: fail unless the worker log LOG has step lines and each
# says a partition folded at most MAX segments (`segments=` on every
# `step_go`/`step_reset` line). A slot is cut where the destination or the
# source partition changes, so a partition gets one segment per source
# partition that sent it anything, and MAX is the run's parallelism.
set -euo pipefail
max=$1
counts=$(grep -E 'event=step_(go|reset) ' "$2" | grep -Eo 'segments=[0-9]+$' | cut -d= -f2)
if [ -z "$counts" ]; then
  echo "error: no step line with segments= in $2" >&2
  exit 1
fi
most=$(echo "$counts" | sort -n | tail -1)
if [ "$most" -gt "$max" ]; then
  echo "error: a partition folded $most segments (at most $max expected) in $2" >&2
  exit 1
fi
echo "step lines: $(echo "$counts" | wc -l), most segments for one partition: $most"
