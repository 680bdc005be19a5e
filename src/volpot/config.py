"""Line-oriented run configuration: `section.key = value` with # comments.

Values are parsed as Python literals when possible (numbers, bracketed
lists, nested matrices, `re,im` pairs become tuples); bare words stay
strings.  Builders turn sections into operators, fundamental solutions,
domains and densities.
"""

from __future__ import annotations

import ast

import numpy as np

from . import presets
from .errors import ConfigError, UnsupportedOperatorError
from .fundsol import fundamental_solution
from .geometry import cosine_star, ellipse, make_ball
from .operators import OperatorCoefficients

DEFAULT_CONFIG = """\
# default verification setup: Laplace operator on the unit disk
operator.a2 = [[1, 0], [0, 1]]
operator.a1 = [0, 0]
operator.a0 = 0,0

fundsol.kind = laplace

domain.kind = ball
domain.dim = 2
domain.R = 1.0

density.preset = one

checks.list = [closed_form, pde_identity, transmission, derivative_recursion, integration_by_parts, maximal_bound, convergence]
checks.N = 64

eval.quantity = volume
eval.points = [[0, 0], [0.5, 0], [2, 0]]

converge.N_list = [8, 16, 32, 64]

modulus.preset = abs_x1
modulus.alpha = 1.0
modulus.scales = [1e-1, 1e-2, 1e-3, 1e-4]
modulus.N = 48
"""


def parse_config(text: str) -> dict:
    """Parse config text into {section: {key: value}}."""
    sections: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected `section.key = value`", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if "." not in key:
            raise ConfigError(f"key {key!r} lacks a section prefix",
                              line=lineno)
        section, _, name = key.partition(".")
        if not section or not name:
            raise ConfigError(f"malformed key {key!r}", line=lineno)
        sections.setdefault(section, {})[name] = _parse_value(value.strip(),
                                                              lineno)
    return sections


def _parse_value(text: str, lineno: int):
    if text == "":
        raise ConfigError("empty value", line=lineno)
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        pass
    if text.startswith("[") and text.endswith("]"):
        # flat list of bare words (check names etc.)
        inner = text[1:-1].strip()
        if "[" in inner or "]" in inner:
            raise ConfigError(f"cannot parse value {text!r}", line=lineno)
        return [_parse_value(item.strip(), lineno)
                for item in inner.split(",") if item.strip()]
    if any(ch in text for ch in "[]{}()"):
        raise ConfigError(f"cannot parse value {text!r}", line=lineno)
    return text  # bare word


def load_config(path) -> dict:
    with open(path) as fh:
        return parse_config(fh.read())


def default_config() -> dict:
    return parse_config(DEFAULT_CONFIG)


def build_operator(cfg: dict) -> OperatorCoefficients:
    sec = cfg.get("operator", {})
    a2 = np.asarray(sec.get("a2", [[1, 0], [0, 1]]), dtype=float)
    n = a2.shape[0]
    a1 = np.asarray(sec.get("a1", [0] * n))
    a0 = sec.get("a0", 0)
    if isinstance(a0, tuple):
        a0 = complex(a0[0], a0[1])
    return OperatorCoefficients(n, a2, a1, complex(a0))


# fundsol.kind -> whether a kernel is of that kind
_FUNDSOL_KINDS = {"laplace": lambda fs: fs.kind == "laplace",
                 "principal": lambda fs: fs.kappa == 0,
                 "modified-helmholtz": lambda fs: fs.kappa > 0,
                 "auto": lambda fs: True}


def build_fundsol(cfg: dict, op: OperatorCoefficients):
    """The fundamental solution of the operator section.  ``fundsol.kind``
    and ``fundsol.kappa`` pick nothing: where given, they must agree with
    the operator's kernel."""
    try:
        fs = fundamental_solution(op)
    except UnsupportedOperatorError as exc:
        raise ConfigError(f"operator section: {exc}")
    sec = cfg.get("fundsol", {})
    kind = sec.get("kind", "auto")
    agrees = _FUNDSOL_KINDS.get(kind) if isinstance(kind, str) else None
    if agrees is None:
        raise ConfigError(f"unknown fundsol.kind {kind!r} "
                          f"({' | '.join(_FUNDSOL_KINDS)})")
    if not agrees(fs):
        raise ConfigError(f"fundsol.kind = {kind}, but the operator section "
                          f"gives the {fs.kind} kernel")
    kappa = sec.get("kappa", fs.kappa)
    if not isinstance(kappa, (int, float)) or not np.isclose(
            kappa, fs.kappa, rtol=1e-12, atol=0.0):
        raise ConfigError(f"fundsol.kappa = {kappa}, but the operator "
                          f"section gives kappa = {fs.kappa}")
    return fs


def build_domain(cfg: dict):
    sec = cfg.get("domain", {})
    kind = sec.get("kind", "ball")
    if kind == "ball":
        n = int(sec.get("dim", 2))
        R = float(sec.get("R", 1.0))
        center = sec.get("center", [0.0] * n)
        return make_ball(n, center, R)
    if kind == "ellipse":
        return ellipse(float(sec.get("a", 2.0)), float(sec.get("b", 1.0)))
    if kind == "star":
        coeffs = sec.get("rho_coeffs", [1.0])
        return cosine_star(coeffs)
    raise ConfigError(f"unknown domain.kind {kind!r} (ball | ellipse | star)")


def build_density(cfg: dict):
    sec = cfg.get("density", {})
    if "csv" in sec:
        return presets.tabulated_from_csv(sec["csv"])
    name = sec.get("preset", "one")
    try:
        return presets.get_preset(name, k=float(sec.get("k", 1.0)))
    except KeyError as exc:
        raise ConfigError(str(exc))

