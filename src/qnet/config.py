"""Versioned YAML configuration: network description plus optional
experiment / simulate / fluid / verify / export sections.

This module alone knows the config schema.  Each section has one field
table that maps every field to its kind and its default (``REQUIRED`` if
it has none).  ``_section`` rejects unknown and missing fields, converts
every value by its kind and fills in the defaults, so a ``LoadedConfig``
holds plain Python values that need no further checks.  The kinds:

* a number is a finite int or float, never a bool or a string (the file
  is read with YAML 1.2 floats, so ``1e4`` and ``1.0e308`` are floats);
  some fields must also be positive, nonnegative or a fraction in [0, 1);
* an integer is a finite integral number: ``2`` and ``2.0`` read as 2;
  seeds, ``per_piece`` and the entries of ``initial_queues`` must also
  be nonnegative, and ``sample_count`` positive;
* lists (read as tuples) and mappings of such values;
* class ids are integers in [0, number of classes);
* per-class and per-flow lists have one entry per class or flow of the
  network, which ``load_config`` builds before the run sections, and a
  per-class list is 0 at the network's idle slots; ``verify.set`` fits
  the network too, and its kinds without a band take no ``a``;
* ``experiment`` gives its seeds as ``seeds`` or as ``base_seed`` and
  ``replications``, never both, and no seed twice.

Any other value raises ConfigError naming ``<section>.<field>``; so does
every network fault that ``build_network`` finds, as ``network.<field>``.
The file must declare ``version: 1``.  All ids (stations, flows, classes)
are zero-based, matching the library.
Distributions are one-key mappings: ``{exponential: rate}``,
``{pareto_paper: rate}`` or ``{deterministic: value}``.  Weights are
integers or "p/q" strings.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional

import yaml

from . import absorption
from .distributions import KINDS, DistributionSpec
from .experiments import ExperimentPlan
from .network import NetworkSpec, build_network, switch_example_spec, tandem_spec

CONFIG_VERSION = 1
REQUIRED = object()  # the default of a field that must be given


class ConfigError(ValueError):
    pass


def _section(node, where: str, fields: dict) -> dict:
    """Every field of ``fields`` (name -> (kind, default)): its value in the
    mapping ``node`` converted by ``kind(value, "<where>.<name>")``, or its
    default when ``node`` has none.  ``where`` is "" at the top level."""
    at, prefix = (where, f"{where}.") if where else ("config", "")
    if not isinstance(node, dict):
        raise ConfigError(f"{at}: expected a mapping")
    unknown = set(node) - set(fields)
    if unknown:
        raise ConfigError(f"{at}: unknown fields {sorted(unknown, key=str)}")
    missing = [key for key, (_, default) in fields.items() if default is REQUIRED and key not in node]
    if missing:
        raise ConfigError(f"{at}: missing fields {missing}")
    return {
        key: kind(node[key], prefix + key) if key in node else default
        for key, (kind, default) in fields.items()
    }


# -- kinds: each maps (value, where) to the converted value or raises ConfigError


def _number(name: str, fits=lambda x: True, convert=float):
    """A finite number that ``fits``, converted by ``convert``; ``name``
    describes the kind in the error."""
    def kind(value, where):
        try:
            x = float(value) if isinstance(value, (int, float)) and not isinstance(value, bool) else None
        except OverflowError:
            x = None
        if x is None:
            raise ConfigError(f"{where}: expected a number")
        if not (math.isfinite(x) and fits(x)):
            raise ConfigError(f"{where}: expected {name}, not {value!r}")
        return convert(value if isinstance(value, int) else x)  # big int seeds stay exact
    return kind


NUMBER = _number("a finite number")
POSITIVE = _number("a positive number", lambda x: x > 0)
NONNEGATIVE = _number("a nonnegative number", lambda x: x >= 0)
FRACTION = _number("a number in [0, 1)", lambda x: 0 <= x < 1)
INTEGER = _number("an integer", float.is_integer, int)
NONNEGATIVE_INTEGER = _number("a nonnegative integer", lambda x: x >= 0 and x.is_integer(), int)
POSITIVE_INTEGER = _number("a positive integer", lambda x: x > 0 and x.is_integer(), int)


def _list(item, length=None, into=tuple, per=None):
    """A list, of ``length`` if given, with each entry converted by
    ``item``; ``per`` ("class" or "flow") says that the length is the
    network's number of classes or flows."""
    def kind(value, where):
        if not isinstance(value, list) or length not in (None, len(value)):
            if per and isinstance(value, list):
                raise ConfigError(f"{where}: expected one entry per {per} ({length}), not {len(value)}")
            raise ConfigError(f"{where}: expected a list" + (f" of {length}" if length and not per else ""))
        return into([item(x, f"{where}[{i}]") for i, x in enumerate(value)])
    return kind


def _per_class(item, net: NetworkSpec):
    """A list with one entry per class of ``net``, each converted by
    ``item``, and 0 at the idle slots, which no flow feeds."""
    entries = _list(item, net.num_classes, per="class")

    def kind(value, where):
        value = entries(value, where)
        for k in sorted(net.idle_slots):
            if value[k] != 0:
                raise ConfigError(f"{where}[{k}]: expected 0 at an idle slot, not {value[k]!r}")
        return value
    return kind


def _mapping(value, where):
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected a mapping")
    return value


def _integer_mapping(value, where):
    return {INTEGER(k, where): INTEGER(v, f"{where}[{k!r}]") for k, v in _mapping(value, where).items()}


def _one_of(names):
    def kind(value, where):
        if not isinstance(value, str) or value not in names:
            raise ConfigError(f"{where}: expected one of {', '.join(names)}, not {value!r}")
        return value
    return kind


def _distribution(node, where: str) -> DistributionSpec:
    if not isinstance(node, dict) or len(node) != 1:
        raise ConfigError(f"{where}: distribution must be a one-key mapping")
    (kind, param), = node.items()
    param = NUMBER(param, where)
    try:
        return DistributionSpec(kind, param)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _weight(node, where: str):
    # build_network reads it as a Fraction and checks that it is positive
    if isinstance(node, (int, str)) and not isinstance(node, bool):
        return node
    raise ConfigError(f"{where}: weight must be an integer or 'p/q' string")


# -- network


_PRESETS = {  # name -> (spec function, its params table)
    "switch_example": (switch_example_spec, {}),
    "tandem": (tandem_spec, {
        "lam": (POSITIVE, REQUIRED),
        "mu1": (POSITIVE, REQUIRED),
        "mu2": (POSITIVE, REQUIRED),
        "arrival_kind": (_one_of(KINDS), "exponential"),
    }),
}


def _flow(node, where: str) -> dict:
    # build_network checks the path, the service count, the weight and the rates
    return _section(node, where, {
        "path": (_list(INTEGER), REQUIRED),
        "weight": (_weight, 1),
        "arrival": (_distribution, REQUIRED),
        "service": (_list(_distribution), REQUIRED),
    })


def _class_ids(value, where: str) -> dict:
    """The rows ``[flow, hop, class]`` as {(flow, hop): class}, each
    (flow, hop) given once."""
    ids = {}
    for f, hop, k in _list(_list(INTEGER, 3))(value, where):
        if (f, hop) in ids:
            raise ConfigError(f"{where}: (flow, hop) {(f, hop)} is given twice")
        ids[f, hop] = k
    return ids


def _network(node, where: str) -> NetworkSpec:
    if isinstance(node, dict) and "preset" in node:
        net = _section(node, where, {
            "preset": (_one_of(_PRESETS), REQUIRED),
            "threshold_base": (POSITIVE, 1.0),
            "params": (_mapping, {}),
        })
        build, params = _PRESETS[net["preset"]]
        return build(threshold_base=net["threshold_base"],
                     **_section(net["params"], f"{where}.params", params))
    net = _section(node, where, {
        "stations": (INTEGER, None),
        "flows": (_list(_flow), REQUIRED),
        "threshold_base": (POSITIVE, REQUIRED),
        "hysteresis_gap": (NONNEGATIVE, 0.0),
        "class_ids": (_class_ids, None),
        "idle_slots": (_integer_mapping, None),
    })
    flows = net["flows"]
    try:
        return build_network(
            [f["path"] for f in flows],
            arrival=[f["arrival"] for f in flows],
            service=[f["service"] for f in flows],
            weights=[f["weight"] for f in flows],
            threshold_base=net["threshold_base"],
            hysteresis_gap=net["hysteresis_gap"],
            num_stations=net["stations"],
            class_ids=net["class_ids"],
            idle_slots=net["idle_slots"],
        )
    except ValueError as exc:  # "<field>: message" faults joined by "; "
        raise ConfigError("; ".join(f"{where}.{fault}" for fault in str(exc).split("; "))) from exc


# -- run sections: each reads the network ``net``, which its lists and sets must fit


def _experiment(node, where: str, net: NetworkSpec) -> ExperimentPlan:
    fields = _section(node, where, {
        "n_values": (_list(POSITIVE), REQUIRED),
        "horizon": (POSITIVE, REQUIRED),
        "replications": (INTEGER, 10),
        "base_seed": (NONNEGATIVE_INTEGER, 0),
        "seeds": (_list(NONNEGATIVE_INTEGER), None),
        "warmup_frac": (FRACTION, 0.2),
        "target_rates": (_list(NUMBER, net.num_flows, per="flow"), None),
    })
    base, count = fields.pop("base_seed"), fields.pop("replications")
    if fields["seeds"] is None:
        fields["seeds"] = tuple(range(base, base + count))
    elif {"base_seed", "replications"} & set(node):
        raise ConfigError(f"{where}: give either seeds or base_seed/replications, not both")
    plan = ExperimentPlan(**fields)
    try:
        plan.validate()
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return plan


def _simulate(node, where: str, net: NetworkSpec) -> dict:
    return _section(node, where, {
        "n": (POSITIVE, REQUIRED),
        "horizon": (POSITIVE, REQUIRED),
        "seed": (NONNEGATIVE_INTEGER, 0),
        "warmup_frac": (FRACTION, 0.2),
        "sample_count": (POSITIVE_INTEGER, None),
        "initial_queues": (_per_class(NONNEGATIVE_INTEGER, net), None),
    })


def _fluid(node, where: str, net: NetworkSpec) -> dict:
    return _section(node, where, {
        "hbar": (POSITIVE, REQUIRED),
        "horizon": (POSITIVE, REQUIRED),
        "initial_q": (_per_class(NUMBER, net), REQUIRED),
        "initial_u": (_list(NUMBER, net.num_flows, per="flow"), None),
        "initial_v": (_per_class(NUMBER, net), None),
    })


_SETS = {  # verify.set kind -> the set, built from the band half-width a if it has a band
    "switch": absorption.switch_equilibrium_set,
    "switch_segments": absorption.switch_tilde_set,
    "tandem_point": absorption.tandem_point_set,
    "tandem_segments": absorption.tandem_tilde_set,
    "tandem_wedge": absorption.tandem_wedge_set,
}
_BANDED = ("switch", "tandem_wedge")


def make_equilibrium_set(node, where: str = "verify.set"):
    """Build a named equilibrium set from a config node; ``a``, the band
    half-width (default 0.5), only for the kinds with a band."""
    eqset = _section(node, where, {"kind": (_one_of(_SETS), REQUIRED), "a": (NUMBER, None)})
    name, a = eqset["kind"], eqset["a"]
    if name not in _BANDED:
        if a is not None:
            raise ConfigError(f"{where}.a: the {name} set has no band")
        return _SETS[name]()
    try:
        return _SETS[name](0.5 if a is None else a)
    except ValueError as exc:  # the band half-width a is its one parameter
        raise ConfigError(f"{where}.a: {exc}") from exc


def _verify(node, where: str, net: NetworkSpec) -> dict:
    verify = _section(node, where, {
        "set": (make_equilibrium_set, REQUIRED),
        "hbar": (POSITIVE, REQUIRED),
        "target_rates": (_list(NUMBER, net.num_flows, per="flow"), None),
        "time_budget": (POSITIVE, None),  # None: 100 * hbar
        "starts": (_list(_per_class(NUMBER, net), into=list), None),
        "per_piece": (NONNEGATIVE_INTEGER, 12),
    })
    try:
        verify["set"].check_fits(net)
    except ValueError as exc:
        raise ConfigError(f"{where}.set: {exc}") from exc
    if verify["starts"] == []:
        raise ConfigError(f"{where}.starts: expected a nonempty list")
    if verify["time_budget"] is None:
        verify["time_budget"] = 100.0 * verify["hbar"]
    return verify


def _export(node, where: str, net: NetworkSpec) -> dict:
    K = net.num_classes
    class_id = _number(f"a class id in [0, {K})", lambda x: 0 <= x < K and x.is_integer(), int)
    return _section(node, where, {
        "trace_queues": (_list(class_id), ()),
        "fluid_phase": (_list(class_id, 2), None),
    })


def _version(value, where: str) -> int:
    if value != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {value!r}")
    return value


class _Loader(yaml.SafeLoader):
    """YAML 1.1, plus the 1.2 floats whose exponent has no sign or whose
    mantissa has no point (``1e4``, ``1.0e308``), which 1.1 reads as
    strings.  A key written twice in one mapping is an error, not the
    later value; a key that a merge (``<<``) brings in may be given again."""

    def compose_mapping_node(self, anchor):
        node = super().compose_mapping_node(anchor)   # as written, before any merge
        seen = set()
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
                key = self.construct_object(key_node)
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"found duplicate key {key!r}", key_node.start_mark)
                seen.add(key)
        return node


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


@dataclass
class LoadedConfig:
    version: int
    network: NetworkSpec
    experiment: Optional[ExperimentPlan]
    simulate: Optional[dict]
    fluid: Optional[dict]
    verify: Optional[dict]
    export: dict


def load_config(path) -> LoadedConfig:
    try:
        with open(path) as fh:
            doc = yaml.load(fh, Loader=_Loader)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: malformed YAML: {exc}") from exc
    cfg = _section(doc, "", {
        "version": (_version, REQUIRED),
        "network": (_network, REQUIRED),
        "experiment": (_mapping, None),
        "simulate": (_mapping, None),
        "fluid": (_mapping, None),
        "verify": (_mapping, None),
        "export": (_mapping, {}),
    })
    for name, section in [("experiment", _experiment), ("simulate", _simulate),
                          ("fluid", _fluid), ("verify", _verify), ("export", _export)]:
        if cfg[name] is not None:
            cfg[name] = section(cfg[name], name, cfg["network"])
    return LoadedConfig(**cfg)
