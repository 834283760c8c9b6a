#!/usr/bin/env bash
# Dispatch-drift guard.
#
# After the Workload refactor, per-dimension dispatch (`match` arms on
# `StencilDim::D1/D2/D3`) is allowed in exactly two places:
#
#   crates/core        — the dispatch home: TileSizes/LaunchConfig
#                        constructors, hhc defaults, benchmark tables
#   crates/time-model  — the DimSpec formula tables (Eqns 2-30)
#
# Every other crate consumes the dimension-generic surface (Workload,
# DimSpec, from_coords/from_extents, StencilDescriptor::paper, rank()). A D[0-9]
# match arm anywhere else means per-dimension logic is leaking back out
# of the dispatch home — fail the build and point at the offender.
set -euo pipefail
cd "$(dirname "$0")/.."

offenders=$(grep -rnE 'StencilDim::D[0-9][[:space:]]*(\|[[:space:]]*StencilDim::D[0-9][[:space:]]*)*=>' \
  --include='*.rs' \
  src tests examples crates shims 2>/dev/null \
  | grep -vE '^(crates/core|crates/time-model)/' || true)

if [ -n "$offenders" ]; then
  echo "error: per-dimension StencilDim match arms outside the dispatch home" >&2
  echo "       (allowed only in crates/core and crates/time-model):" >&2
  echo >&2
  echo "$offenders" >&2
  echo >&2
  echo "Route the logic through stencil-core's dimension-generic API" >&2
  echo "(Workload, TileSizes::from_coords, LaunchConfig::from_extents," >&2
  echo " StencilDescriptor::paper, dim.rank()) or time-model::DimSpec." >&2
  exit 1
fi

echo "dispatch guard: OK (no per-dimension match arms outside crates/core, crates/time-model)"
