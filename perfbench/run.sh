#!/usr/bin/env bash
# Builds the renuver CLI and the benchmark driver from the sources of the
# checkout it runs in, then runs one workload. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload serve_restaurant --seed 1 --seconds 15 --trace 0
#
# Every file it writes (build cache, binaries, inputs, spans) goes under
# .perfbench/ in the current directory.
set -euo pipefail

root=$(pwd)
state="$root/.perfbench"
mkdir -p "$state/gocache" "$state/gomodcache" "$state/tmp" "$state/bin" "$state/config"
export GOCACHE="$state/gocache" GOMODCACHE="$state/gomodcache" GOTMPDIR="$state/tmp" TMPDIR="$state/tmp"
# The go command keeps its config and telemetry under the user config
# directory; point that into the checkout too.
export XDG_CONFIG_HOME="$state/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(
	cd "$root/perfbench"
	go build -o "$state/bin/renuver" repro/cmd/renuver
	go build -o "$state/bin/perfbench" .
)
exec "$state/bin/perfbench" -renuver "$state/bin/renuver" -state "$state" "$@"
