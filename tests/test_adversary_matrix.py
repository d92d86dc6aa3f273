"""Every §5.2 adversary is detected on every execution path.

The adversaries override one seam, :meth:`PrismServer.tamper`, which
every fused output row passes through: local thread and compiled sweeps,
rows returned by the forked shard workers, and whole-sweep and
span-scoped requests on entity hosts.  This matrix pins the contract
that follows — each adversary raises :class:`VerificationError`, and an
honest server passes with the plaintext answer — across

* every class in :mod:`repro.entities.adversary`,
* ``num_shards`` ∈ {1, 7},
* in-process servers and pooled TCP hosts serving span frames,
* the numpy and the compiled kernel tier (when the C backend builds).
"""

from __future__ import annotations

import inspect
import multiprocessing

import pytest

from repro import Domain, PrismSystem, Relation, VerificationError, kernels
from repro.core.aggregate import aggregate_reference
from repro.core.psi import psi_reference
from repro.core.psu import psu_reference
from repro.entities import adversary, remote
from repro.entities.server import PrismServer
from repro.network.host import launch_forked_pools, pools_spec

ADVERSARIES = sorted(
    (cls for _, cls in inspect.getmembers(adversary, inspect.isclass)
     if issubclass(cls, PrismServer) and cls is not PrismServer),
    key=lambda cls: cls.__name__)

#: The verified query each adversary's tampering shows up in.
ATTACKED_QUERY = {
    "DropAggregateServer": "psi_sum",
    "TamperPsuServer": "psu",
}

fork_available = "fork" in multiprocessing.get_all_start_methods()


def relations():
    return [
        Relation("a", {"k": [1, 2, 3, 9, 20], "amt": [10, 20, 30, 5, 6]}),
        Relation("b", {"k": [2, 3, 4, 9, 31], "amt": [1, 2, 3, 4, 5]}),
        Relation("c", {"k": [2, 3, 5, 9, 40], "amt": [5, 6, 7, 8, 9]}),
    ]


def run_query(system, kind):
    if kind == "psi":
        return system.psi("k", verify=True)
    if kind == "psu":
        return system.psu("k", verify=True)
    return system.psi_sum("k", "amt", verify=True)["amt"]


@pytest.fixture(scope="module", params=["numpy", "c"])
def tier(request):
    """The kernel tier, active in this process and every forked child.

    The crossover floor drops to one cell so the compiled sweeps really
    run at these toy sizes.
    """
    if request.param == "c" and not kernels.available():
        pytest.skip("compiled kernel tier unavailable (no C toolchain)")
    floor = kernels.NATIVE_MIN_SPAN
    kernels.NATIVE_MIN_SPAN = 1
    assert kernels.configure(request.param) == request.param
    yield request.param
    kernels.configure(None)
    kernels.NATIVE_MIN_SPAN = floor


@pytest.fixture(scope="module")
def pooled(tier):
    """Two replica hosts per server role, forked with the tier active."""
    if not fork_available:
        pytest.skip("fork-based entity hosts unavailable")
    pools, processes = launch_forked_pools([2, 2, 2])
    yield pools_spec(pools)
    for process in processes:
        process.terminate()
    for process in processes:
        process.join(timeout=10)


@pytest.fixture(params=["local", "pooled"])
def deployment(request, tier, monkeypatch):
    # Span frames at toy sizes (the floor is tuned for real sweeps).
    monkeypatch.setattr(remote, "SPAN_DISPATCH_MIN_CELLS", 1)
    if request.param == "local":
        return "local"
    return request.getfixturevalue("pooled")


def build(deployment, num_shards, server_factories=None):
    return PrismSystem.build(
        relations(), Domain.integer_range("k", 64), "k",
        agg_attributes=("amt",), with_verification=True, seed=5,
        deployment=deployment, num_shards=num_shards,
        server_factories=server_factories or {})


def assert_fast_path(system, deployment, num_shards):
    """The sweeps took the sharded / span path, not a fallback."""
    if deployment != "local":
        assert system._channels[0].stats["scattered_frames"] > 0
    elif num_shards > 1 and fork_available:
        assert system._shard_runtime.dispatches > 0


@pytest.mark.parametrize("num_shards", [1, 7])
@pytest.mark.parametrize("cls", ADVERSARIES, ids=lambda cls: cls.__name__)
def test_adversary_detected(cls, num_shards, deployment):
    kind = ATTACKED_QUERY.get(cls.__name__, "psi")
    with build(deployment, num_shards, {0: cls}) as system:
        with pytest.raises(VerificationError):
            run_query(system, kind)
        assert_fast_path(system, deployment, num_shards)


@pytest.mark.parametrize("num_shards", [1, 7])
def test_honest_server_passes(num_shards, deployment):
    rels = relations()
    common = psi_reference(rels, "k")
    with build(deployment, num_shards) as system:
        psi = run_query(system, "psi")
        assert psi.verified and set(psi.values) == common
        psu = run_query(system, "psu")
        assert psu.verified and set(psu.values) == psu_reference(rels, "k")
        sums = run_query(system, "psi_sum")
        assert sums.verified
        assert sums.per_value == aggregate_reference(rels, "k", "amt",
                                                     common)
        assert_fast_path(system, deployment, num_shards)
