"""Experiment configuration: YAML file over documented defaults.

The default configuration is the trajectory-reproduction preset: a seeded
random 16x16 PSD matrix with six nonzero eigenvalues, a 6-qubit phase
register, and amplification runs with the plain QFT mode and bias values
1 and 20.

The ``pea`` section is a :class:`~qspectral.qpea.PeaConfig`, and each entry
of ``runs`` is checked as that section with the run's own mode and kappa.
Keys a section leaves out keep the default section's values.  Errors name
``<section>.<field>`` (a top-level field by its bare name) or ``runs[i]``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import yaml

from .classical import VARIANTS
from .qpea import PeaConfig

# (mode, kappa) runs matching the published trajectory sweep
DEFAULT_RUNS: tuple[tuple[str, float], ...] = (("qft", 0.0), ("biased", 1.0), ("biased", 20.0))
DATASET_KINDS = ("random_psd", "blobs", "moons", "csv")
GRAPH_KINDS = ("full", "epsilon", "knn")
TARGETS = ("laplacian", "normalized_laplacian", "gram", "matrix")
# libyaml's loader when pyyaml was built with it; same safe subset, parsed in C
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
# YAML types accepted per scalar field annotation; a bool is refused where a number is due
_SCALAR_TYPES = {"int": (int,), "float": (int, float), "float | None": (int, float, type(None)),
                 "int | str": (int, str), "str": (str,), "str | None": (str, type(None)),
                 "bool": (bool,)}


class _Loader(_YAML_LOADER):
    """:data:`_YAML_LOADER` that also reads the YAML 1.2 floats YAML 1.1 leaves as
    text, such as ``5e-1``, ``2E3`` and ``1.0e5``.  YAML 1.1's resolvers are
    tried first, so every scalar they resolve keeps its type, and a quoted
    ``'5e-1'`` stays text."""


_Loader.add_implicit_resolver(  # on a copy of the resolver table: the base loader is unchanged
    "tag:yaml.org,2002:float",
    re.compile(r"[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"),
    list("-+.0123456789"))


@dataclass(frozen=True)
class DatasetSpec:
    kind: str = "random_psd"
    # random_psd
    dim: int = 16
    rank: int = 6
    eig_min: float = 0.3
    eig_max: float = 1.0
    # csv
    path: str | None = None
    # blobs
    sizes: tuple = (8, 8)
    centers: tuple = ((1.0, 0.0), (0.0, 1.0))
    noise: float = 0.1
    # moons
    n: int = 16

    def __post_init__(self):
        if self.kind not in DATASET_KINDS:
            raise ValueError(f"kind must be one of {DATASET_KINDS}, got {self.kind!r}")
        if self.kind == "csv" and not self.path:
            raise ValueError("path is required when kind = csv")
        if not 1 <= self.rank <= self.dim:
            raise ValueError(f"rank must lie in [1, dim], got {self.rank}")
        if not 0.0 < self.eig_min <= self.eig_max:
            raise ValueError(f"eig_min must satisfy 0 < eig_min <= eig_max = {self.eig_max}, "
                             f"got {self.eig_min}")
        if not (math.isfinite(self.noise) and self.noise >= 0.0):
            raise ValueError(f"noise must be finite and >= 0, got {self.noise}")
        if not (isinstance(self.sizes, tuple) and self.sizes
                and all(_is_int(s) and s > 0 for s in self.sizes)):
            raise ValueError(f"sizes must be a list of positive ints, got {self.sizes!r}")
        rows = self.centers if isinstance(self.centers, tuple) else ()
        if not (len(rows) == len(self.sizes)
                and all(isinstance(r, tuple) and len(r) == len(rows[0]) > 0
                        and all(_is_number(x) for x in r) for r in rows)):
            raise ValueError(f"centers must be a list of equal-length number lists, "
                             f"one per size, got {self.centers!r}")


@dataclass(frozen=True)
class GraphSpec:
    kind: str = "full"
    sigma: float = 1.0
    squared_norm: bool = False
    eps: float = 1.0
    k: int = 3

    def __post_init__(self):
        if self.kind not in GRAPH_KINDS:
            raise ValueError(f"kind must be one of {GRAPH_KINDS}, got {self.kind!r}")
        for name in ("sigma", "eps", "k"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class AmplifySpec:
    max_iter: int = 40
    stop_tol: float | None = None

    def __post_init__(self):
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be >= 0, got {self.max_iter}")
        if self.stop_tol is not None and not 0.0 <= self.stop_tol <= 0.5:
            raise ValueError(f"stop_tol must lie in [0, 0.5], got {self.stop_tol}")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    graph: GraphSpec = field(default_factory=GraphSpec)
    target: str = "matrix"
    gram_centered: bool = False
    k: int | str = "auto"
    k_max: int = 8
    variant: str = "unnormalized"
    pea: PeaConfig = field(default_factory=lambda: PeaConfig(m=6, kappa=1.0, mode="biased"))
    amplify: AmplifySpec = field(default_factory=AmplifySpec)
    runs: tuple = DEFAULT_RUNS
    candidates: str | tuple = "auto"
    scrambled: int = 1
    overlap_min: float = 0.25
    overlap_max: float = 0.9
    out_dir: str = "qspectral_out"

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ValueError(f"target must be one of {TARGETS}, got {self.target!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.k != "auto" and (not isinstance(self.k, int) or self.k < 1):
            raise ValueError(f"k must be 'auto' or a positive integer, got {self.k!r}")
        if self.k_max < 2:
            raise ValueError(f"k_max must be >= 2, got {self.k_max}")
        if not 0.0 < self.overlap_min <= self.overlap_max <= 1.0:
            raise ValueError("overlap window must satisfy 0 < min <= max <= 1")
        if self.scrambled < 0:
            raise ValueError(f"scrambled must be >= 0, got {self.scrambled}")
        for i, (mode, kappa) in enumerate(self.runs):
            try:
                replace(self.pea, mode=mode, kappa=kappa)
            except ValueError as exc:
                raise ValueError(f"runs[{i}].{exc}") from None


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _check_type(name: str, value, annotation: str):
    want = _SCALAR_TYPES.get(annotation, (object,))
    if not isinstance(value, want) or (isinstance(value, bool) and bool not in want):
        raise ValueError(f"{name} must be {annotation}, got {value!r}")


_DEFAULTS = ExperimentConfig()


def _build(base, data: dict, context: str):
    """``base`` with the keys of ``data`` replaced, type-checked and validated;
    every error is prefixed with ``<context>.`` here (nothing for top-level)."""
    types = {f.name: f.type for f in fields(base)}
    unknown = set(data) - set(types)
    if unknown:
        raise ValueError(f"unknown {context} keys: {sorted(unknown)}")
    converted = {}
    try:
        for key, value in data.items():
            _check_type(key, value, types[key])
            if isinstance(value, list):
                value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
            converted[key] = value
        return replace(base, **converted)
    except ValueError as exc:
        raise ValueError(("" if context == "top-level" else f"{context}.") + str(exc)) from None


def load_config(path=None, seed: int | None = None, out_dir: str | None = None) -> ExperimentConfig:
    """Load configuration from YAML, falling back to the preset defaults.

    ``seed`` and ``out_dir`` override whatever the file specifies (these come
    from the command line).
    """
    data: dict = {}
    if path is not None:
        text = Path(path).read_text()
        loaded = yaml.load(text, Loader=_Loader)
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ValueError(f"{path}: top level must be a mapping")
        data = loaded

    kwargs = {}
    for key, value in data.items():
        if key in ("dataset", "graph", "pea", "amplify"):
            if not isinstance(value, dict):
                raise ValueError(f"config section {key!r} must be a mapping")
            kwargs[key] = _build(getattr(_DEFAULTS, key), value, key)
        elif key == "runs":
            if not isinstance(value, list):
                raise ValueError(f"runs must be a list of runs, got {value!r}")
            runs = []
            for entry in value:
                if isinstance(entry, dict):
                    unknown = set(entry) - {"mode", "kappa"}
                    if unknown:
                        raise ValueError(f"unknown runs entry keys: {sorted(unknown)}")
                    runs.append((entry.get("mode", "biased"), entry.get("kappa", 0.0)))
                elif isinstance(entry, list) and len(entry) == 2:
                    runs.append(tuple(entry))
                else:
                    raise ValueError(f"runs entry {entry!r} is neither a mapping nor [mode, kappa]")
                _check_type("runs kappa", runs[-1][1], "float")
            kwargs["runs"] = tuple((mode, float(kappa)) for mode, kappa in runs)
        elif key == "candidates" and value != "auto":
            if not (isinstance(value, list) and value and all(isinstance(g, list) for g in value)):
                raise ValueError(f"candidates must be 'auto' or a non-empty list of integer "
                                 f"lists, got {value!r}")
            for group in value:  # an indicator would drop a repeat and rank what is left
                for j, i in enumerate(group):
                    _check_type("candidates member", i, "int")
                    if i in group[:j]:
                        raise ValueError(f"candidates group {group} repeats member {i}")
            kwargs["candidates"] = tuple(map(tuple, value))
        else:
            kwargs[key] = value

    if seed is not None:
        kwargs["seed"] = int(seed)
    if out_dir is not None:
        kwargs["out_dir"] = str(out_dir)
    return _build(_DEFAULTS, kwargs, "top-level")
