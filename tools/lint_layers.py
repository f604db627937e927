#!/usr/bin/env python3
"""Layering lint: assert the first-party include DAG of src/.

Layer order (an arrow means "may include"):

    base <- serial, obs, transport      (leaf utility layers)
    base, serial, obs <- core
    base, serial, obs, core, transport <- dist
    base, serial, core, transport <- hw
    base, serial, core <- proc
    base, serial, core, dist, proc <- wubbleu

On top of the directory DAG, the sync engines under src/dist/sync/ carry
stricter rules (the engine split's structural guarantee):

  * an engine (conservative / optimistic / snapshot / recovery / adaptive)
    may include its own header, engine_context.hpp, and the dist
    protocol/channel layer (protocol.hpp, channel.hpp, channel_set.hpp,
    snapshot_store.hpp) — NEVER another engine, and never the facade layer
    (subsystem.hpp, node.hpp, topology.hpp); engines communicate only
    through EngineContext.
  * engine_context.hpp itself must not include any engine.
  * no sync/ file may include transport/ headers directly: engines see
    remote endpoints only as ChannelEndpoints (channel.hpp owns the Link),
    so a transport swap can never require an engine change.

The worker pool (src/dist/executor.*) sits beside the facade but below the
node layer: it drives subsystems only through the public Subsystem slice API
— it must never include a sync engine (dist/sync/*) nor the cluster wiring
(dist/node.hpp), so scheduling policy stays separable from both.

The replication shim (src/dist/replica.*) wraps transport links BELOW the
protocol engines: it fans frames out, dedups them, and promotes survivors
without ever interpreting sync state beyond message identity.  It must not
include a sync engine (dist/sync/*) — if failover ever needs engine help,
that help must arrive through the Subsystem facade, keeping replication
composable with any future engine.

Two scale-out seams carry their own rules:

  * dist/sharding.* is a pure-function leaf (shard maps, ownership math):
    besides its own header it may include only base/.  It must stay usable
    from a client that links none of the sync machinery.
  * wubbleu/scaleout.* builds topologies through the node facade only — it
    must not include a sync engine (dist/sync/*) nor the worker pool
    (dist/executor.hpp); thread placement is chosen via NodeCluster options,
    never by reaching into the pool directly.

One rule covers where protocol counters live: a subsystem's counters are
the fields of SubsystemStats (engine_context.hpp), which the facade and
every engine increment in place, so no file under src/dist/sync/ may
declare another `struct ...Stats`.  A per-engine block would need its own
copy into the totals, and such copies drift.

One rule covers who owns the durable image: a restore image is the
serialized Chandy-Lamport cut, so its format lives with the cuts, in the
SnapshotCoordinator.  Only src/dist/sync/snapshot.cpp may name the
"pia.dist.recovery" section (outside comments), and src/dist/sync/recovery.*
may include nothing from serial/: the recovery layer keeps heartbeats and
the rejoin handshake, and a second writer or reader of the image would let
the two restore paths drift apart again.

One rule covers how the library sleeps: transport::poll_until is its one
timed sleep (it sets the thread's timer slack so a wait ends at its
deadline), so sleep_for, sleep_until, nanosleep and usleep may be called in
src/ only from transport/ready.cpp.  Condition-variable waits are
notify-driven and not covered.

Run from anywhere: paths are resolved relative to this script.  Exits 0 when
clean, 1 with one line per violation otherwise.
"""

import re
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Directory DAG: layer -> first-party layers it may include.
ALLOWED = {
    "base": {"base"},
    "serial": {"base", "serial"},
    "obs": {"base", "obs"},
    "transport": {"base", "transport"},
    "core": {"base", "serial", "obs", "core"},
    "dist": {"base", "serial", "obs", "core", "transport", "dist"},
    "hw": {"base", "serial", "core", "transport", "hw"},
    "proc": {"base", "serial", "core", "proc"},
    "wubbleu": {"base", "serial", "core", "dist", "proc", "wubbleu"},
}

ENGINES = {"conservative", "optimistic", "snapshot", "recovery", "adaptive"}

# dist/ headers an engine may reach (besides lower layers and sync/ itself).
ENGINE_DIST_ALLOWED = {
    "dist/protocol.hpp",
    "dist/channel.hpp",
    "dist/channel_set.hpp",
    "dist/snapshot_store.hpp",
}

# dist/ headers the executor may reach: subsystems via their public slice
# API only — no sync engines, no node/cluster wiring.
EXECUTOR_DIST_ALLOWED = {
    "dist/executor.hpp",
    "dist/subsystem.hpp",
    "dist/channel_set.hpp",
}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')

STATS_STRUCT_RE = re.compile(r"\bstruct\s+(\w*Stats)\b")

IMAGE_SECTION = '"pia.dist.recovery"'
IMAGE_HOME = SRC / "dist" / "sync" / "snapshot.cpp"

SLEEP_RE = re.compile(r"\b(sleep_for|sleep_until|nanosleep|usleep)\s*\(")
SLEEP_HOME = SRC / "transport" / "ready.cpp"


def first_party_includes(path):
    for line_number, line in enumerate(
        path.read_text().splitlines(), start=1
    ):
        match = INCLUDE_RE.match(line)
        if match:
            yield line_number, match.group(1)


def check_directory_dag(path, layer, errors):
    for line_number, inc in first_party_includes(path):
        target = inc.split("/")[0]
        if target not in ALLOWED:
            errors.append(
                f"{path}:{line_number}: include of unknown layer "
                f'"{inc}" (expected one of {sorted(ALLOWED)})'
            )
        elif target not in ALLOWED[layer]:
            errors.append(
                f"{path}:{line_number}: layer violation: {layer}/ must not "
                f'include "{inc}" (allowed: {sorted(ALLOWED[layer])})'
            )


def check_sleeps(path, errors):
    if path == SLEEP_HOME:
        return
    for line_number, line in enumerate(
        path.read_text().splitlines(), start=1
    ):
        code = line.split("//", 1)[0]
        match = SLEEP_RE.search(code)
        if match:
            errors.append(
                f"{path}:{line_number}: raw {match.group(1)}() outside "
                f"transport/ready.cpp; sleep through transport::poll_until "
                f"(an empty fd set sleeps to the deadline)"
            )


def check_image_format(path, errors):
    if path != IMAGE_HOME:
        for line_number, line in enumerate(
            path.read_text().splitlines(), start=1
        ):
            if IMAGE_SECTION in line.split("//", 1)[0]:
                errors.append(
                    f"{path}:{line_number}: names the {IMAGE_SECTION} image "
                    f"section; only dist/sync/snapshot.cpp reads or writes "
                    f"the durable image"
                )
    if path.parent.name == "sync" and path.name.split(".")[0] == "recovery":
        for line_number, inc in first_party_includes(path):
            if inc.startswith("serial/"):
                errors.append(
                    f"{path}:{line_number}: the recovery layer holds no "
                    f'serialization code ("{inc}"); the image belongs to '
                    f"the SnapshotCoordinator"
                )


def check_stats_structs(path, errors):
    for line_number, line in enumerate(
        path.read_text().splitlines(), start=1
    ):
        code = line.split("//", 1)[0]
        match = STATS_STRUCT_RE.search(code)
        if match and match.group(1) != "SubsystemStats":
            errors.append(
                f"{path}:{line_number}: struct {match.group(1)} in "
                f"dist/sync/; count into SubsystemStats instead of a "
                f"per-engine stats block"
            )


def check_engine(path, errors):
    stem = path.name.split(".")[0]
    for line_number, inc in first_party_includes(path):
        if inc.startswith("dist/sync/"):
            target = Path(inc).name.split(".")[0]
            own = target == stem or target == "engine_context"
            if stem == "engine_context" and target in ENGINES:
                errors.append(
                    f"{path}:{line_number}: engine_context must not "
                    f'include an engine ("{inc}")'
                )
            elif not own and target in ENGINES:
                errors.append(
                    f"{path}:{line_number}: engines must not include each "
                    f'other ("{inc}"); communicate through EngineContext'
                )
        elif inc.startswith("dist/"):
            if inc not in ENGINE_DIST_ALLOWED:
                errors.append(
                    f"{path}:{line_number}: sync engine reaches into the "
                    f'facade layer ("{inc}"; allowed: '
                    f"{sorted(ENGINE_DIST_ALLOWED)})"
                )
        elif inc.startswith("transport/"):
            # The directory DAG allows dist -> transport, but engines sit
            # behind the channel abstraction: only channel.hpp may hold a
            # Link.
            errors.append(
                f"{path}:{line_number}: sync engine must not include "
                f'transport headers directly ("{inc}"); reach links only '
                f"through ChannelEndpoint"
            )
        # Lower layers are covered by the directory DAG pass.


def check_sharding(path, errors):
    for line_number, inc in first_party_includes(path):
        if inc == "dist/sharding.hpp" or inc.startswith("base/"):
            continue
        errors.append(
            f"{path}:{line_number}: sharding is a base-only leaf; it must "
            f'not include "{inc}"'
        )


def check_scaleout(path, errors):
    for line_number, inc in first_party_includes(path):
        if inc.startswith("dist/sync/") or inc == "dist/executor.hpp":
            errors.append(
                f"{path}:{line_number}: scaleout harness must drive the "
                f'cluster through the node facade, not "{inc}"'
            )


def check_replica(path, errors):
    for line_number, inc in first_party_includes(path):
        if inc.startswith("dist/sync/"):
            errors.append(
                f"{path}:{line_number}: replica shim must stay below the "
                f'sync engines ("{inc}"); it replicates frames and message '
                f"identity, never engine state"
            )


def check_executor(path, errors):
    for line_number, inc in first_party_includes(path):
        if inc.startswith("dist/sync/"):
            errors.append(
                f"{path}:{line_number}: executor must not include a sync "
                f'engine ("{inc}"); drive subsystems through run_slice'
            )
        elif inc.startswith("dist/") and inc not in EXECUTOR_DIST_ALLOWED:
            errors.append(
                f"{path}:{line_number}: executor reaches outside its seam "
                f'("{inc}"; allowed: {sorted(EXECUTOR_DIST_ALLOWED)})'
            )


def main():
    if not SRC.is_dir():
        print(f"lint_layers: src/ not found at {SRC}", file=sys.stderr)
        return 1
    errors = []
    checked = 0
    for layer in sorted(ALLOWED):
        directory = SRC / layer
        if not directory.is_dir():
            errors.append(f"lint_layers: missing layer directory {directory}")
            continue
        for path in sorted(directory.rglob("*")):
            if path.suffix not in {".hpp", ".cpp"}:
                continue
            checked += 1
            check_directory_dag(path, layer, errors)
            check_sleeps(path, errors)
            check_image_format(path, errors)
            if path.parent.name == "sync":
                check_engine(path, errors)
                check_stats_structs(path, errors)
            if layer == "dist" and path.name.split(".")[0] == "executor":
                check_executor(path, errors)
            if layer == "dist" and path.name.split(".")[0] == "sharding":
                check_sharding(path, errors)
            if layer == "dist" and path.name.split(".")[0] == "replica":
                check_replica(path, errors)
            if layer == "wubbleu" and path.name.split(".")[0] == "scaleout":
                check_scaleout(path, errors)
    sync_dir = SRC / "dist" / "sync"
    expected = ENGINES | {"engine_context"}
    present = {p.name.split(".")[0] for p in sync_dir.glob("*.hpp")}
    for missing in sorted(expected - present):
        errors.append(f"lint_layers: expected engine header missing: "
                      f"{sync_dir / (missing + '.hpp')}")
    for error in errors:
        print(error)
    if errors:
        print(f"lint_layers: {len(errors)} violation(s) in {checked} files")
        return 1
    print(f"lint_layers: OK ({checked} files checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
