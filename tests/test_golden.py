"""Golden sha256 digests of seeded outputs.

Every output below is a pure function of its inputs and seeds, so its
bytes are pinned.  A refactor must leave all of them unchanged; a change
that alters an output on purpose updates the digest and says why in
CHANGES.md.
"""
import hashlib
import json

import numpy as np
import pytest

from qnet.absorption import (
    SamplePlan,
    SamplePoint,
    switch_equilibrium_set,
    verify_C1,
    verify_C2,
)
from qnet.cli import main
from qnet.experiments import export_trajectory_csv
from qnet.fluid import TRAJECTORY_COLUMNS, FluidState, integrate
from qnet.network import SWITCH, switch_example_spec
from test_acceptance import _random_spec

SWEEP_YAML = """\
version: 1
network: {preset: switch_example}
experiment:
  n_values: [5, 20]
  horizon: 800
  replications: 2
  base_seed: 3
  target_rates: [0.5, 0.5, 0.5]
"""

SIMULATE_YAML = """\
version: 1
network: {preset: tandem, params: {lam: 1.0, mu1: 0.8, mu2: 0.5}}
simulate: {n: 10, horizon: 2000, seed: 7, sample_count: 50}
"""


def switch_q(q2, q7):
    q = np.zeros(8)
    q[SWITCH.flow1_ingress] = 1.0
    q[SWITCH.flow3_egress] = 1.0
    q[SWITCH.flow2_ingress] = q2
    q[SWITCH.flow2_egress] = q7
    return q


def canon(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def cli_output(tmp_path, yaml_text, verb, name) -> bytes:
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml_text)
    out = tmp_path / "out"
    assert main([verb, "--config", str(cfg), "--out", str(out)]) == 0
    return (out / name).read_bytes()


def sweep_rates_json(tmp_path) -> bytes:
    return cli_output(tmp_path, SWEEP_YAML, "sweep", "rates.json")


def simulate_trace_json(tmp_path) -> bytes:
    return cli_output(tmp_path, SIMULATE_YAML, "simulate", "trace.json")


def c1_report(tmp_path) -> bytes:
    proj = switch_equilibrium_set(0.5).projected((SWITCH.flow2_ingress, SWITCH.flow2_egress))
    plan = SamplePlan(
        points=[SamplePoint(q=switch_q(q2, q7), label=f"s{i}")
                for i, (q2, q7) in enumerate([(0.4, 0.7), (1.9, 0.2), (2.5, 2.5)])],
        time_budget=120.0,
    )
    return canon(verify_C1(switch_example_spec(), proj, 1.0, plan).to_dict())


def c2_report(tmp_path) -> bytes:
    report = verify_C2(
        switch_example_spec(), switch_equilibrium_set(0.5), 1.0, [0.5, 0.5, 0.5],
        per_piece=3, seed=11,
    )
    return canon(report.to_dict())


def trajectory_csv(tmp_path) -> bytes:
    spec = switch_example_spec()
    traj = integrate(FluidState.initial(spec, switch_q(2.4, 0.3), 1.0), spec, 30.0)
    path = tmp_path / "fluid.csv"
    export_trajectory_csv(traj, path)
    return path.read_bytes()


def c1_grid_report(tmp_path) -> bytes:
    # the 40 criterion-3 starts, over all four regions of the switch
    proj = switch_equilibrium_set(0.5).projected((SWITCH.flow2_ingress, SWITCH.flow2_egress))
    edges = [0.02, 0.2, 0.95]
    starts = [(a, b, "region1") for a in edges + [0.5] for b in edges + [0.6]]
    starts += [(a, b, "region2") for a in [1.02, 1.3, 2.9] for b in edges]
    starts += [(a, b, "region3") for a in [0.02, 0.6, 1.5, 2.9] for b in [1.02, 1.6, 2.9]]
    starts += [(0.0, b, "region4") for b in [1.52, 1.8, 2.9]]
    plan = SamplePlan(
        points=[SamplePoint(q=switch_q(a, b), label=region) for a, b, region in starts],
        time_budget=120.0,
    )
    return canon(verify_C1(switch_example_spec(), proj, 1.0, plan).to_dict())


def random_trajectories(tmp_path) -> bytes:
    # 20 random networks, each from the empty state, from a seeded q and u,
    # and from a seeded q with one residual gate per station
    rng = np.random.default_rng(31)
    blob = []
    for _ in range(20):
        spec = _random_spec(rng)
        K, F = spec.num_classes, spec.num_flows
        v = np.zeros(K)
        for ks in spec.fed:
            if ks:
                v[ks[int(rng.integers(len(ks)))]] = rng.random()
        starts = [
            (np.zeros(K), None, None),
            (3.0 * rng.random(K), rng.random(F), None),
            (3.0 * rng.random(K), None, v),
        ]
        for q, u, v0 in starts:
            traj = integrate(FluidState.initial(spec, q, 1.0, u=u, v=v0), spec, 40.0)
            blob += [np.ascontiguousarray(getattr(traj, name)).tobytes() for name in TRAJECTORY_COLUMNS]
            absorbed = np.nan if traj.absorbed_at is None else traj.absorbed_at
            blob.append(np.float64(absorbed).tobytes())
    return b"".join(blob)


GOLDEN = {
    sweep_rates_json: "93e0f1b021a7ee66e62a3de76c5ac36ecf64aa9194d775627dec37fa8e44c86f",
    simulate_trace_json: "8ac682e8c68a8ecf02d6ad8970c4408e520f11f3cf52f16817c24feee9d678f3",
    c1_report: "bddd15a9f0394f566e6fcc9f9e373c002e84120fa1ad0e26a6a7cdf790b6a59b",
    c2_report: "93d38b1ff91ddf3593634eb0465d156682ab159d03993f4d393e3ba1b75fd2f9",
    trajectory_csv: "57bf56625133359307b2b83536d1172dd0cc6f25d5084f98f03dff09f78902cb",
    c1_grid_report: "912d75f4631bbf467b6785292850ad96e2ed358b76f355c65fa246f8a3288817",
    random_trajectories: "281a551c95cda951289f3308830dbb62b21f1c9b5c90c45be183878b29953101",
}


@pytest.mark.parametrize("produce", list(GOLDEN), ids=lambda fn: fn.__name__)
def test_seeded_output_digest(produce, tmp_path):
    assert hashlib.sha256(produce(tmp_path)).hexdigest() == GOLDEN[produce]
