"""Benchmark-suite fixtures: shared trained proxies and datasets.

The accuracy-side benches (Table I, Fig. 16) need trained networks;
training is the dominant cost, so the proxies are trained once per
benchmark session and shared.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))
# The repository root, for the reference-loop oracle the speedup
# benches time against (``tests/serving/oracle``).
sys.path.insert(1, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import pytest

from repro.nn import (  # noqa: E402  (path bootstrap above)
    load_parameters,
    make_dataset,
    pcnn_net,
    save_parameters,
    train,
    train_test_split,
)

#: Trained-proxy cache: training dominates the accuracy benches'
#: wall-clock, and the (dataset seed, trainer seed, epochs) triple is
#: fixed, so the parameters are reusable across benchmark sessions.
CACHE_DIR = os.path.join(os.path.dirname(__file__), ".cache")


def pytest_addoption(parser):
    """``--quick``: CI smoke mode -- benches shrink their workloads to
    finish in seconds while still exercising the full code path and
    keeping every assertion armed."""
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help="run benchmarks with reduced workloads (CI smoke mode)",
    )
    parser.addoption(
        "--shards",
        type=int,
        default=2,
        help="shard count the fleet-sharding bench scales to in "
        "--quick mode (full mode sweeps 1/2/4/8)",
    )


@pytest.fixture(scope="session")
def quick(request):
    """Whether the suite runs in ``--quick`` smoke mode."""
    return request.config.getoption("--quick")


@pytest.fixture(scope="session")
def shards(request):
    """The --shards option: quick-mode shard count for the sharding
    bench."""
    return request.config.getoption("--shards")


@pytest.fixture(scope="session")
def proxy_dataset():
    """The synthetic classification task (seeded)."""
    data = make_dataset(900, seed=1)
    return train_test_split(data, test_fraction=0.25, seed=2)


@pytest.fixture(scope="session")
def trained_proxies(proxy_dataset):
    """All three PcnnNet capacity tiers, trained: Table I's subjects.

    Parameters are cached under ``benchmarks/.cache`` keyed by the
    fixed training recipe; delete the directory to retrain.
    """
    train_set, _test_set = proxy_dataset
    os.makedirs(CACHE_DIR, exist_ok=True)
    trained = {}
    for size in ("small", "medium", "large"):
        network = pcnn_net(size)
        cache_path = os.path.join(
            CACHE_DIR, "pcnn-%s-d900s1-e8s3.npz" % size
        )
        params = None
        if os.path.exists(cache_path):
            try:
                params = load_parameters(cache_path, network)
            except ValueError:
                params = None  # architecture drifted; retrain
        if params is None:
            params = train(network, train_set, epochs=8, seed=3).params
            save_parameters(params, cache_path, network)
        trained[size] = (network, params)
    return trained


@pytest.fixture(scope="session")
def scenario_outcomes():
    """The Figs. 13-15 evaluation matrix: 6 schedulers x 3 tasks x
    {K20c, TX1}, computed once per benchmark session."""
    from repro.gpu import JETSON_TX1, K20C
    from repro.schedulers import compare_schedulers, make_context
    from repro.workloads import paper_scenarios

    matrix = {}
    for arch in (K20C, JETSON_TX1):
        for scenario in paper_scenarios():
            ctx = make_context(arch, scenario.network, scenario.spec)
            matrix[(arch.name, scenario.name)] = (
                ctx,
                compare_schedulers(ctx),
            )
    return matrix
