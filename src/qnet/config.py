"""Versioned YAML configuration: network description plus optional
experiment / fluid / verification sections.

The loader is strict: unknown keys anywhere are rejected, and the file
must declare ``version: 1``.  All ids (stations, flows, classes) are
zero-based, matching the library.  Distributions are one-key mappings:
``{exponential: rate}``, ``{pareto_paper: rate}`` or
``{deterministic: value}``.  Weights are integers or "p/q" strings.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import yaml

from .distributions import DistributionSpec
from .experiments import ExperimentPlan
from .network import (
    NetworkSpec,
    build_network,
    switch_example_spec,
    tandem_spec,
)

CONFIG_VERSION = 1


class ConfigError(ValueError):
    pass


def _is_number(value) -> bool:
    """An int or a float, or a string that reads as one (YAML 1.1 reads
    ``1e4`` as a string); not a bool."""
    if isinstance(value, str):
        try:
            float(value)
        except ValueError:
            return False
        return True
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# field kinds for ``_require_keys(shapes=)``: the name in the error and the test
_KINDS = {
    list: ("list", lambda value: isinstance(value, list)),
    dict: ("mapping", lambda value: isinstance(value, dict)),
    float: ("number", _is_number),
}


def _require_keys(section: dict, allowed: set, required: set, where: str, shapes=None) -> None:
    """``shapes`` maps a field to the kind its value must have: list, dict
    or float (a number, see ``_is_number``)."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected a mapping")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown fields {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"{where}: missing fields {sorted(missing)}")
    for key, kind in (shapes or {}).items():
        name, fits = _KINDS[kind]
        if key in section and not fits(section[key]):
            raise ConfigError(f"{where}.{key}: expected a {name}")


def _parse_dist(node, where: str) -> DistributionSpec:
    if not isinstance(node, dict) or len(node) != 1:
        raise ConfigError(f"{where}: distribution must be a one-key mapping")
    (kind, param), = node.items()
    try:
        return DistributionSpec(kind, float(param))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_weight(node, where: str) -> Fraction:
    try:
        if isinstance(node, str):
            return Fraction(node)
        if isinstance(node, int):
            return Fraction(node)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{where}: bad weight {node!r}") from exc
    raise ConfigError(f"{where}: weight must be an integer or 'p/q' string")


def _class_ids(node, num_classes: int, where: str, length=None) -> list:
    """A list of class ids in [0, num_classes), of ``length`` if given."""
    if not isinstance(node, list) or (length is not None and len(node) != length):
        size = f"{length} " if length is not None else ""
        raise ConfigError(f"{where}: expected a list of {size}class ids")
    for k in node:
        if isinstance(k, bool) or not isinstance(k, int) or not 0 <= k < num_classes:
            raise ConfigError(f"{where}: class id {k!r} is not in [0, {num_classes})")
    return list(node)


def _parse_network(node) -> NetworkSpec:
    if isinstance(node, dict) and "preset" in node:
        _require_keys(
            node, {"preset", "threshold_base", "params"}, {"preset"}, "network",
            shapes={"threshold_base": float},
        )
        params = node.get("params", {}) or {}
        h = float(node.get("threshold_base", 1.0))
        if node["preset"] == "switch_example":
            _require_keys(params, set(), set(), "network.params")
            return switch_example_spec(threshold_base=h)
        if node["preset"] == "tandem":
            _require_keys(
                params, {"lam", "mu1", "mu2", "arrival_kind"}, {"lam", "mu1", "mu2"},
                "network.params",
            )
            return tandem_spec(
                params["lam"], params["mu1"], params["mu2"],
                threshold_base=h,
                arrival_kind=params.get("arrival_kind", "exponential"),
            )
        raise ConfigError(f"network: unknown preset {node['preset']!r}")

    _require_keys(
        node,
        {"stations", "flows", "threshold_base", "hysteresis_gap", "class_ids", "idle_slots"},
        {"flows", "threshold_base"},
        "network",
        shapes={
            "stations": float, "threshold_base": float, "hysteresis_gap": float,
            "class_ids": list, "idle_slots": dict,
        },
    )
    flows = node["flows"]
    if not isinstance(flows, list) or not flows:
        raise ConfigError("network.flows: expected a nonempty list")
    paths, weights, arrivals, services = [], [], [], []
    for fi, fnode in enumerate(flows):
        where = f"network.flows[{fi}]"
        _require_keys(fnode, {"path", "weight", "arrival", "service"}, {"path", "arrival", "service"}, where)
        path = fnode["path"]
        if not isinstance(path, list) or not path:
            raise ConfigError(f"{where}.path: expected a nonempty list of station ids")
        paths.append([int(s) for s in path])
        weights.append(_parse_weight(fnode.get("weight", 1), f"{where}.weight"))
        arrivals.append(_parse_dist(fnode["arrival"], f"{where}.arrival"))
        svc = fnode["service"]
        if not isinstance(svc, list) or len(svc) != len(path):
            raise ConfigError(f"{where}.service: expected one distribution per hop")
        services.append([_parse_dist(s, f"{where}.service[{i}]") for i, s in enumerate(svc)])

    class_ids = None
    if "class_ids" in node:
        class_ids = {}
        for entry in node["class_ids"]:
            if not (isinstance(entry, list) and len(entry) == 3):
                raise ConfigError("network.class_ids: entries must be [flow, hop, class]")
            class_ids[(int(entry[0]), int(entry[1]))] = int(entry[2])
    idle_slots = None
    if "idle_slots" in node:
        idle_slots = {int(k): int(v) for k, v in node["idle_slots"].items()}

    return build_network(
        paths,
        arrival=arrivals,
        service=services,
        weights=weights,
        threshold_base=float(node["threshold_base"]),
        hysteresis_gap=float(node.get("hysteresis_gap", 0.0)),
        num_stations=int(node["stations"]) if "stations" in node else None,
        class_ids=class_ids,
        idle_slots=idle_slots,
    )


def _parse_experiment(node) -> ExperimentPlan:
    _require_keys(
        node,
        {"n_values", "horizon", "replications", "base_seed", "seeds", "warmup_frac", "target_rates"},
        {"n_values", "horizon"},
        "experiment",
        shapes={
            "horizon": float, "replications": float, "base_seed": float, "warmup_frac": float,
            "n_values": list, "seeds": list, "target_rates": list,
        },
    )
    plan = ExperimentPlan(
        n_values=tuple(float(n) for n in node["n_values"]),
        horizon=float(node["horizon"]),
        replications=int(node.get("replications", 10)),
        base_seed=int(node.get("base_seed", 0)),
        seeds=tuple(int(s) for s in node["seeds"]) if "seeds" in node else None,
        warmup_frac=float(node.get("warmup_frac", 0.2)),
        target_rates=tuple(float(r) for r in node["target_rates"]) if "target_rates" in node else None,
    )
    try:
        plan.validate()
    except ValueError as exc:
        raise ConfigError(f"experiment: {exc}") from exc
    return plan


@dataclass
class LoadedConfig:
    network: NetworkSpec
    experiment: Optional[ExperimentPlan] = None
    simulate: Optional[dict] = None
    fluid: Optional[dict] = None
    verify: Optional[dict] = None
    export: Optional[dict] = None


def load_config(path) -> LoadedConfig:
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: malformed YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a mapping at top level")
    _require_keys(
        doc,
        {"version", "network", "experiment", "simulate", "fluid", "verify", "export"},
        {"version", "network"},
        "config",
    )
    if doc["version"] != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {doc['version']!r}")
    net = _parse_network(doc["network"])

    simulate = None
    if "simulate" in doc:
        _require_keys(
            doc["simulate"],
            {"n", "horizon", "seed", "warmup_frac", "sample_count", "initial_queues"},
            {"n", "horizon"},
            "simulate",
            shapes={
                "n": float, "horizon": float, "seed": float, "warmup_frac": float,
                "sample_count": float, "initial_queues": list,
            },
        )
        simulate = dict(doc["simulate"])

    fluid = None
    if "fluid" in doc:
        _require_keys(
            doc["fluid"], {"hbar", "horizon", "initial_q", "initial_u", "initial_v"},
            {"hbar", "horizon", "initial_q"}, "fluid",
            shapes={
                "hbar": float, "horizon": float,
                "initial_q": list, "initial_u": list, "initial_v": list,
            },
        )
        fluid = dict(doc["fluid"])

    verify = None
    if "verify" in doc:
        _require_keys(
            doc["verify"],
            {"set", "hbar", "target_rates", "time_budget", "starts", "per_piece"},
            {"set", "hbar"},
            "verify",
            shapes={
                "hbar": float, "time_budget": float, "per_piece": float,
                "target_rates": list, "starts": list,
            },
        )
        verify = dict(doc["verify"])

    export = None
    if "export" in doc:
        _require_keys(doc["export"], {"trace_queues", "fluid_phase"}, set(), "export")
        export = dict(doc["export"])
        K = net.num_classes
        if export.get("trace_queues") is not None:
            export["trace_queues"] = _class_ids(export["trace_queues"], K, "export.trace_queues")
        if export.get("fluid_phase") is not None:
            export["fluid_phase"] = _class_ids(export["fluid_phase"], K, "export.fluid_phase", 2)

    return LoadedConfig(
        network=net,
        experiment=_parse_experiment(doc["experiment"]) if "experiment" in doc else None,
        simulate=simulate,
        fluid=fluid,
        verify=verify,
        export=export,
    )


def make_equilibrium_set(node):
    """Build a named equilibrium set from a config node."""
    from . import absorption

    _require_keys(node, {"kind", "a"}, {"kind"}, "verify.set")
    kind = node["kind"]
    if kind == "switch":
        return absorption.switch_equilibrium_set(float(node.get("a", 0.5)))
    if kind == "switch_segments":
        return absorption.switch_tilde_set()
    if kind == "tandem_point":
        return absorption.tandem_point_set()
    if kind == "tandem_segments":
        return absorption.tandem_tilde_set()
    if kind == "tandem_wedge":
        return absorption.tandem_wedge_set(float(node.get("a", 0.5)))
    raise ConfigError(f"verify.set: unknown kind {kind!r}")
