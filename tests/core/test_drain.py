"""A drained model holds no lock and keeps nobody in the scheduler.

After ``VOODBSimulation.run`` every transaction has released its lock
set and left the multiprogramming mix, so every lock table is empty,
no lone record is open, a cluster lock service remembers no partition,
and the Transaction Manager's MULTILVL scheduler has no unit in use and
nobody queued.  Each config reaches a different way to leave something
behind: lock waits under the scheduler's cap, node crashes and
partitions with async copies, and a cluster object server.
"""

import math

import pytest

from repro.core import ArrivalConfig, ClusterConfig, SystemClass
from repro.core.failures import FailureConfig, FaultConfig, RetryConfig
from repro.core.model import VOODBSimulation
from repro.core.parameters import ReplicationConfig
from repro.systems.o2 import o2_config


def _base(hotn: int = 150):
    config = o2_config(nc=10, no=500, cache_mb=0.25, hotn=hotn)
    return config.with_changes(ocb=config.ocb.with_changes(pwrite=0.3))


def contended_server():
    config = _base()
    return config.with_changes(
        nusers=8, multilvl=4, ocb=config.ocb.with_changes(root_region=20)
    )


def faulty_async_cluster():
    return _base().with_changes(
        multilvl=8,
        arrivals=ArrivalConfig(mode="poisson", rate_tps=80.0),
        cluster=ClusterConfig(servers=3, replication=3, interconnect_mbps=25.0),
        replication=ReplicationConfig(mode="async", read_quorum=2),
        failures=FailureConfig(crash_mtbf_ms=1000.0, recovery_time_ms=200.0),
        faults=FaultConfig(
            partition_mtbf_ms=800.0,
            partition_heal_ms=300.0,
            partition_groups=((0,), (1, 2)),
            election_delay_ms=25.0,
            repair_interval_ms=100.0,
        ),
        retry=RetryConfig(timeout_ms=15.0, max_retries=2, backoff_base_ms=5.0),
    )


def cluster_object_server():
    return _base().with_changes(
        sysclass=SystemClass.OBJECT_SERVER,
        nusers=4,
        cluster=ClusterConfig(
            servers=3, placement="hash", replication=2, interconnect_mbps=math.inf
        ),
        replication=ReplicationConfig(mode="async"),
    )


@pytest.mark.parametrize(
    "make_config", [contended_server, faulty_async_cluster, cluster_object_server]
)
def test_a_drained_model_holds_no_lock_and_no_scheduler_unit(make_config):
    model = VOODBSimulation(make_config(), seed=1)
    results = model.run()
    model.close()
    phase = results.phase
    if make_config is contended_server:
        assert phase.lock_waits > 0
    if make_config is faulty_async_cluster:
        assert phase.crashes > 0 and phase.partitions > 0
    locks = model.locks
    assert locks.releases == locks.acquisitions > 0
    for table in getattr(locks, "parts", [locks]):
        assert table._table == {}
        assert table._lone is None
        assert table.locked_objects == 0
    if model.cluster is not None:
        assert locks._parts_of == {}
    admission = model.tm.admission
    assert (admission.in_use, admission.queued) == (0, 0)
