"""Import budget: serving and running load only what they call.

``scipy.stats`` (with ``scipy.integrate``, ``scipy.interpolate`` and
``scipy.ndimage`` behind it) is about a fifth of a fresh process's
resident memory and a third of its start-up, yet only the repetition
summaries (t-interval, sign test) and the GAN's KS statistic call it.
``scipy.optimize`` (with ``scipy.sparse`` and ``scipy.linalg``) is about
half a second more, yet every LP solve goes straight to the one compiled
HiGHS module inside it, ``scipy.optimize._highspy._core``, which
:mod:`repro.core.fastlp` loads by itself; only ``exact_optimum``'s
``milp`` needs the package.  Those call sites import what they use where
they run; these tests keep every other path from loading them: the
package imports, an in-process decision service session, and short
offline runs of OL_GAN and of OL_GD with the clairvoyant optimum.

Two more packages stay out of those paths.  ``networkx`` (about 14 MB
and 340 modules) is no longer a dependency: :mod:`repro.mec.graph`
builds the topologies.  ``http.server`` (about 6 MB with ``email``
behind it) serves only the Prometheus exporter, which ``repro serve``
imports when ``--metrics-port`` is given.

The check runs in a fresh interpreter, because the test process itself
has long since imported everything.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

PROBE = textwrap.dedent(
    """
    import io
    import json
    import re
    import sys
    import tempfile
    import threading
    import time

    import repro.api
    import repro.cli
    from repro.api import DecisionServer, ServeConfig, make_controller, run_simulation
    from repro.mec.network import MECNetwork
    from repro.mec.requests import Request
    from repro.serve import serve
    from repro.serve.protocol import handle_line, request_over_socket
    from repro.utils.seeding import RngRegistry
    from repro.workload import BurstyDemandModel

    with tempfile.TemporaryDirectory() as directory:
        server = DecisionServer(
            ServeConfig(
                controller="OL_GD", seed=11, horizon=4, n_stations=8,
                n_services=2, n_requests=6, n_hotspots=2,
                checkpoint_dir=directory,
            )
        )
        server.start()
        for line in (
            {"op": "offer", "request": 1, "volume_mb": 1.5},
            {"op": "offer", "request": 4, "volume_mb": 0.5},
            {"op": "decide", "slot": 0},
            {"op": "status"},
            {"op": "metrics"},
            {"op": "checkpoint"},
        ):
            reply = json.loads(handle_line(server, json.dumps(line)))
            assert reply["ok"], reply
        server.stop()

    # The TCP front end as `repro serve` runs it, without a metrics port.
    banner = io.StringIO()
    config = ServeConfig(
        controller="OL_GD", seed=12, horizon=4, n_stations=8, n_services=2,
        n_requests=6, n_hotspots=2,
    )
    front = threading.Thread(
        target=serve,
        args=(config,),
        kwargs={"port": 0, "install_signal_handlers": False, "banner": banner},
    )
    front.start()
    deadline = time.monotonic() + 60.0
    while not (announced := re.search("serving on [^:]+:([0-9]+)", banner.getvalue())):
        assert front.is_alive() and time.monotonic() < deadline, banner.getvalue()
        time.sleep(0.01)
    port = int(announced.group(1))
    for line in (
        {"op": "offer", "request": 2, "volume_mb": 1.0},
        {"op": "decide", "slot": 0},
        {"op": "shutdown"},
    ):
        reply = request_over_socket("127.0.0.1", port, line)
        assert reply["ok"], reply
    front.join(60.0)
    assert not front.is_alive()

    def world(name, **options):
        rngs = RngRegistry(seed=5)
        network = MECNetwork.synthetic(8, 2, rngs)
        rng = rngs.get("requests")
        requests = [
            Request(
                index=i,
                service_index=int(rng.integers(2)),
                basic_demand_mb=float(rng.uniform(1.0, 2.0)),
                hotspot_index=i % 2,
            )
            for i in range(6)
        ]
        model = BurstyDemandModel(requests, rngs.get("demand"))
        controller = make_controller(
            name, network, requests, rngs.get("ctrl"), **options
        )
        return network, model, controller

    run_simulation(
        *world("OL_GAN", n_hotspots=2, window=3, hidden_size=4),
        2,
        demands_known=False,
    )
    run_simulation(*world("OL_GD"), 2, compute_optimal=True)
    print(json.dumps(sorted(sys.modules)))
    """
)


@pytest.fixture(scope="module")
def loaded():
    """The modules a fresh interpreter holds after the probe."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    modules = json.loads(completed.stdout.strip().splitlines()[-1])
    # The probe did reach the LP stack.
    assert "scipy.optimize._highspy._core" in modules
    return modules


def test_serving_and_running_never_load_scipy_stats(loaded):
    assert "scipy.stats" not in loaded, (
        "scipy.stats was imported outside the summary call sites"
    )


@pytest.mark.parametrize("package", ["scipy.optimize", "scipy.sparse", "scipy.linalg"])
def test_serving_and_running_load_only_the_highs_core(loaded, package):
    assert package not in loaded, (
        f"{package} was imported outside exact_optimum; the LP path needs "
        "only scipy.optimize._highspy._core"
    )


@pytest.mark.parametrize("module", ["networkx", "http.server"])
def test_serving_and_running_never_load(loaded, module):
    assert module not in loaded, (
        f"{module} was imported by the package, a served session without a "
        "metrics port, or an offline run"
    )
