"""Model-equivalence digests: 35 pinned configs, one hex digest each.

The PR-5/PR-6 equivalence methodology: run one replication of each
pinned configuration, flatten its full metric dictionary (kernel
counters included) to canonical JSON, and hash it.  Two kernels are
*equivalent* exactly when every digest matches — the check that lets
a kernel or event-list rewrite be swapped in with confidence.

The committed ``benchmarks/digests.json`` is the reference: comparing
against it catches a model refactor that drifts a config no golden
covers::

    PYTHONPATH=src python benchmarks/digest_configs.py \
        --compare benchmarks/digests.json

``--compare`` exits 1 on any mismatch, printing both digests per
config.  The config set deliberately crosses every subsystem the tick
refactor touched: system classes, replacement policies, clustering,
cluster topologies, virtual memory, prefetching, failure injection,
lock contention and write traffic — plus the cluster page-service
modes (sync fan-out on free and throttled interconnects, async copies,
per-node failures, object-server forwarding), the single-server
miss paths behind client caches and prefetching, both cluster system
classes behind a client cache on free and throttled networks, and
anti-entropy sweeps that yield on a throttled interconnect while
partitions or crashes move versions underneath them, automatic
DSTC reorganizations that rebuild the page map while other users'
transactions are in flight, and the rarest fault-layer paths: the
coordinator fetch's retry ladder and abandoned wait, the applier's
negative ack, a throttled sync fan-out skipping a crashed replica, and
the monotonic-reads floor and its primary fallback.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

from repro.core import run_replication
from repro.core.failures import FailureConfig, FaultConfig, RetryConfig
from repro.core.parameters import (
    ArrivalConfig,
    ClusterConfig,
    ReplicationConfig,
    SystemClass,
    VOODBConfig,
)
from repro.ocb.parameters import OCBConfig
from repro.systems.o2 import o2_config
from repro.systems.texas import texas_config

#: Transactions per pinned run: small enough for seconds-per-config,
#: large enough to exercise reorganizations, evictions and contention.
_HOTN = 300


def _ocb(**overrides) -> OCBConfig:
    overrides.setdefault("hotn", _HOTN)
    return OCBConfig(nc=20, no=5000, **overrides)


def pinned_configs() -> dict:
    """The 35 pinned (name -> config) equivalence points."""
    base = VOODBConfig(ocb=_ocb())
    writes = VOODBConfig(ocb=_ocb(pwrite=0.3))
    # Cluster page-service points: 4 concurrent users, so requests meet
    # crashed nodes (failover, recovery waits) and in-flight appliers.
    shared = writes.with_changes(nusers=4)
    node_failures = FailureConfig(transient_mtbf_ms=500.0, crash_mtbf_ms=8_000.0)
    # Single-server miss paths no golden covers: client caches on free
    # and throttled networks, dirty write-backs, one-ahead prefetching.
    served = VOODBConfig(ocb=_ocb(pwrite=0.3), buffsize=256)
    page_server = served.with_changes(client_buffsize=64, prefetch="one_ahead")
    object_server = served.with_changes(
        sysclass=SystemClass.OBJECT_SERVER, client_buffsize=64
    )

    def cluster(mbps: float = math.inf) -> ClusterConfig:
        return ClusterConfig(
            servers=3, placement="hash", replication=2, interconnect_mbps=mbps
        )

    # Both cluster system classes behind a 64-frame client cache.
    cached = served.with_changes(nusers=4, client_buffsize=64)
    cluster_objects = cached.with_changes(
        sysclass=SystemClass.OBJECT_SERVER,
        cluster=cluster(25.0),
        replication=ReplicationConfig(mode="async"),
    )
    # Anti-entropy points: async copies on a throttled interconnect, so
    # each sweep's page ships yield while versions, partitions and
    # crashes change under it.  The retry setting rides on each point:
    # without the fault layer it is rejected as inert.
    repaired = VOODBConfig(
        ocb=_ocb(pwrite=0.3),
        multilvl=8,
        arrivals=ArrivalConfig(mode="poisson", rate_tps=80.0),
        cluster=ClusterConfig(servers=3, replication=3, interconnect_mbps=25.0),
        replication=ReplicationConfig(
            mode="async", read_quorum=2, apply_delay_ms=2.0
        ),
    )
    retry = RetryConfig(timeout_ms=15.0, max_retries=2, backoff_base_ms=5.0)
    partitions = FaultConfig(
        partition_mtbf_ms=1500.0,
        partition_heal_ms=400.0,
        partition_groups=((0,), (1, 2)),
        election_delay_ms=25.0,
        repair_interval_ms=100.0,
    )

    return {
        "default": base,
        # nusers > multilvl so the multiprogramming cap actually binds.
        "mpl-2": base.with_changes(multilvl=2, nusers=8),
        "object-server": base.with_changes(sysclass=SystemClass.OBJECT_SERVER),
        "db-server": base.with_changes(sysclass=SystemClass.DB_SERVER),
        "lfu": base.with_changes(pgrep="LFU"),
        "mru": base.with_changes(pgrep="MRU"),
        "fifo": base.with_changes(pgrep="FIFO"),
        "prefetch-cluster": base.with_changes(prefetch="cluster"),
        "writes": writes,
        "contended-locks": VOODBConfig(
            ocb=_ocb(pwrite=0.3), multilvl=10, nusers=10
        ),
        "timed-locks": base.with_changes(getlock=5.0, rellock=2.5),
        "failures": base.with_changes(
            failures=FailureConfig(
                transient_mtbf_ms=500.0, crash_mtbf_ms=8_000.0
            )
        ),
        "cluster-3": base.with_changes(
            cluster=ClusterConfig(servers=3, placement="hash")
        ),
        "texas-vm": texas_config(nc=20, no=5000, memory_mb=16, hotn=_HOTN),
        "o2-dstc": o2_config(
            nc=20, no=5000, cache_mb=4, hotn=_HOTN
        ).with_changes(clustp="dstc"),
        # Reorganizes every 50 transactions (6 times) while the other
        # three users' transactions hold pages of the old map.
        "o2-dstc-auto-4u": o2_config(
            nc=20, no=5000, cache_mb=4, hotn=_HOTN
        ).with_changes(clustp="dstc", nusers=4, multilvl=4),
        "cluster-sync-r2": shared.with_changes(cluster=cluster()),
        "cluster-sync-r2-25mbps": shared.with_changes(cluster=cluster(25.0)),
        "cluster-async-r2-failures": shared.with_changes(
            cluster=cluster(),
            replication=ReplicationConfig(mode="async"),
            failures=node_failures,
        ),
        "cluster-sync-r2-failures": shared.with_changes(
            cluster=cluster(), failures=node_failures
        ),
        "cluster-object-async-25mbps": shared.with_changes(
            sysclass=SystemClass.OBJECT_SERVER,
            cluster=cluster(25.0),
            replication=ReplicationConfig(mode="async"),
        ),
        "page-server-cache-free-net": page_server.with_changes(
            netthru=math.inf
        ),
        "page-server-cache-1mbps": page_server.with_changes(nusers=4),
        "object-server-cache-free-net": object_server.with_changes(
            netthru=math.inf
        ),
        "object-server-cache-1mbps": object_server.with_changes(nusers=4),
        # 5 MB leaves Texas 256 frames: swap-outs, swap-ins and the
        # reserved-page swap-in plus read all fire (8 MB never swaps).
        "texas-vm-5mb-writes": texas_config(
            nc=20, no=5000, memory_mb=5, hotn=_HOTN, pwrite=0.3
        ),
        "cluster-page-cache-free-net": cached.with_changes(
            netthru=math.inf, cluster=cluster()
        ),
        "cluster-page-cache-1mbps": cached.with_changes(cluster=cluster()),
        "cluster-object-cache-free-net": cluster_objects.with_changes(netthru=math.inf),
        "cluster-object-cache-1mbps": cluster_objects,
        "cluster-partition-repair": repaired.with_changes(
            faults=partitions, retry=retry
        ),
        "cluster-crash-repair": repaired.with_changes(
            failures=FailureConfig(crash_mtbf_ms=2000.0, recovery_time_ms=300.0),
            faults=FaultConfig(election_delay_ms=25.0, repair_interval_ms=250.0),
            retry=retry,
        ),
        # The only point whose coordinator fetches cross a partition:
        # their retry ladder, the abandoned fetch's wait for the heal,
        # and the applier's negative ack to a W=2 writer.
        "cluster-object-partitions-w2": repaired.with_changes(
            sysclass=SystemClass.OBJECT_SERVER,
            cluster=cluster(25.0),
            replication=ReplicationConfig(
                mode="async", write_quorum=2, apply_delay_ms=2.0
            ),
            faults=partitions,
            retry=retry,
        ),
        # A throttled sync fan-out that skips a crashed replica.
        "cluster-sync-r2-failures-25mbps": shared.with_changes(
            cluster=cluster(25.0), failures=node_failures
        ),
        # Reads that meet the monotonic floor and fall back to the
        # primary while replicas lag and crash.
        "cluster-monotonic-reads-crashes": repaired.with_changes(
            replication=ReplicationConfig(
                mode="async", apply_delay_ms=20.0, monotonic_reads=True
            ),
            failures=FailureConfig(crash_mtbf_ms=1000.0, recovery_time_ms=300.0),
        ),
    }


#: Clustering-policy keyword arguments of the points that need them.
CLUSTERING_KWARGS = {
    "o2-dstc-auto-4u": {"observation_period": 50, "auto_trigger": True},
}


def digest_config(
    config: VOODBConfig, seed: int = 1, clustering_kwargs: dict | None = None
) -> str:
    """Hex digest of one replication's complete metric dictionary."""
    metrics = run_replication(
        config, seed=seed, clustering_kwargs=clustering_kwargs
    ).to_metrics()
    canonical = json.dumps(metrics, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def run_digests(seed: int = 1) -> dict:
    digests = {}
    for name, config in pinned_configs().items():
        digests[name] = digest_config(
            config, seed=seed, clustering_kwargs=CLUSTERING_KWARGS.get(name)
        )
        print(f"{name:>31}  {digests[name]}")
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Hex-digest the 35 pinned model-equivalence configs."
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", help="write the digests JSON here")
    parser.add_argument(
        "--compare",
        help="reference digests JSON; exit 1 on any mismatch",
    )
    args = parser.parse_args(argv)

    digests = run_digests(seed=args.seed)
    if args.out:
        payload = {"seed": args.seed, "digests": digests}
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"digests written to {args.out}")
    if args.compare:
        with open(args.compare, encoding="utf-8") as handle:
            other = json.load(handle)["digests"]
        mismatched = sorted(
            name
            for name in set(digests) | set(other)
            if digests.get(name) != other.get(name)
        )
        if mismatched:
            print(f"\nFAIL: {len(mismatched)} digest mismatch(es):")
            for name in mismatched:
                print(f"  {name}:")
                print(f"    this run: {digests.get(name, '<missing>')}")
                print(f"    compare:  {other.get(name, '<missing>')}")
            return 1
        print(f"\nOK: all {len(digests)} digests match {args.compare}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
