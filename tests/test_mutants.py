"""Mutation matrix: each case plants one small, named defect in-process and
pins which checks of a flat and a deformed ``verify`` run catch it.

A mutant replaces one function or constant wherever a ``swanson`` module
binds it, then ``cli.main`` runs and the set of failing checks is
compared with the pinned one.  A mutant that no check catches is pinned
as ``survives``, naming the ROADMAP item that will close it; a change
that closes it turns its entry into the set of checks that now fail.
"""

import dataclasses
import json
import sys

import numpy as np
import pytest

import swanson.grids
import swanson.model
from swanson.algebra import CoeffFn, DiffOp, Poly
from swanson.cli import main

RUNS = {
    "flat": ["verify", "--omega", "1", "--lambda", "-0.5", "--delta", "0.5",
             "--n", "301", "--pmax", "8", "--seed", "1"],
    "deformed": ["verify", "--omega", "1.3", "--lambda", "0.2", "--delta",
                 "-0.4", "--beta", "0.05", "--pmax", "40", "--n", "301",
                 "--seed", "1"],
}


def _rebind(monkeypatch, original, replacement):
    """Bind ``replacement`` under every name a swanson module binds
    ``original`` to."""
    for key, module in list(sys.modules.items()):
        if key == "swanson" or key.startswith("swanson."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def _wrapped(module, name, wrap):
    """A mutant that rebinds ``module.name`` to ``wrap(original)``."""
    def install(monkeypatch):
        original = getattr(module, name)
        _rebind(monkeypatch, original, wrap(original))
    return install


def _scaled(name, factor):
    return _wrapped(swanson.model, name,
                    lambda original: lambda params: original(params) * factor)


def _position_without_u(monkeypatch):
    """x = i*hbar*D: the minimal-length factor u = 1 + beta*p^2 dropped."""
    def position(params):
        fn = CoeffFn(Poly((1j * params.hbar,)), 0, params.beta)
        return DiffOp.from_dict(params.beta, {1: fn})
    _rebind(monkeypatch, swanson.model.position_operator, position)


def _d2_centre(monkeypatch):
    """The centre of the fourth-order second-derivative stencil."""
    stencil = swanson.grids._STENCILS[(2, 4)]
    monkeypatch.setitem(stencil, 0, stencil[0] * (1 + 1e-6))


def _d1_unit_entries(monkeypatch):
    """The -1 and +1 entries of the fourth-order first-derivative stencil."""
    stencil = swanson.grids._STENCILS[(1, 4)]
    for offset in (-1, 1):
        monkeypatch.setitem(stencil, offset, stencil[offset] * (1 + 1e-6))


def _grid_metric_exponent(similarity_transform):
    """The metric exponent scaled on the grid only, not in the algebra."""
    return lambda a, exponent: similarity_transform(a, exponent * 1.01)


def _flat_weights(build_grid):
    """Quadrature weights h, without the 1/u of the deformed measure."""
    def build(*args, **kwargs):
        grid = build_grid(*args, **kwargs)
        return dataclasses.replace(grid, weights=np.full(grid.n, grid.h))
    return build


def _scaled_levels(eigs):
    def solve(*args, **kwargs):
        spectrum = eigs(*args, **kwargs)
        return dataclasses.replace(spectrum,
                                   eigenvalues=spectrum.eigenvalues * (1 + 1e-7))
    return solve


def _scaled_oracle(oscillator_levels):
    return lambda params, count: [level * (1 + 1e-6)
                                  for level in oscillator_levels(params, count)]


MUTANTS = {
    "none": lambda monkeypatch: None,
    "metric_exponent": _scaled("metric_exponent", 1 + 1e-6),
    "position_without_u": _position_without_u,
    "gaussian_alpha": _scaled("gaussian_alpha", 1.01),
    "d2_stencil_centre": _d2_centre,
    "d1_stencil_unit_entries": _d1_unit_entries,
    "grid_metric_exponent": _wrapped(swanson.grids, "similarity_transform",
                                     _grid_metric_exponent),
    "grid_weights_without_u": _wrapped(swanson.grids, "build_grid",
                                       _flat_weights),
    "eigs_levels": _wrapped(swanson.grids, "eigs", _scaled_levels),
    "oscillator_levels": _wrapped(swanson.model, "oscillator_levels",
                                  _scaled_oracle),
}

PSEUDO = {"pseudo_hermiticity_gaussian",
          "pseudo_hermiticity_gaussian_randomized",
          "pseudo_hermiticity_deformed_randomized"}

# (mutant, run, the checks that fail), or a "survives: ..." string for a
# mutant that every check of the run passes.
MATRIX = [
    ("none", "flat", set()),
    ("none", "deformed", set()),
    ("metric_exponent", "flat", PSEUDO),
    ("metric_exponent", "deformed", PSEUDO | {"pseudo_hermiticity_deformed"}),
    ("position_without_u", "flat", {"pseudo_hermiticity_deformed_randomized"}),
    ("position_without_u", "deformed",
     {"pseudo_hermiticity_deformed", "pseudo_hermiticity_deformed_randomized"}),
    ("gaussian_alpha", "flat", {"spectrum", "convergence_spectrum"}),
    ("gaussian_alpha", "deformed",
     "survives: metric_limit has no real threshold (ROADMAP item 5(b))"),
    ("d2_stencil_centre", "flat", {"spectrum", "convergence_spectrum"}),
    ("d2_stencil_centre", "deformed",
     "survives: no closed-form ladder at beta > 0 (ROADMAP item 2)"),
    ("d1_stencil_unit_entries", "flat",
     "survives: numeric_residual's tolerance is calibrated, not derived "
     "(ROADMAP item 5(a))"),
    ("d1_stencil_unit_entries", "deformed",
     "survives: numeric_residual is report-only at beta > 0 (ROADMAP item 5(a))"),
    ("grid_metric_exponent", "flat", {"numeric_residual", "convergence_residual"}),
    ("grid_metric_exponent", "deformed",
     "survives: numeric_residual is report-only at beta > 0 (ROADMAP item 5(a))"),
    # at beta = 0 the weights are h either way: no flat entry
    ("grid_weights_without_u", "deformed",
     "survives: numeric_residual is report-only at beta > 0, and no check "
     "reads the deformed weights on their own (ROADMAP items 5(a) and 11)"),
    ("eigs_levels", "flat",
     "survives: SPECTRUM_TOL is absolute (ROADMAP item 5(c))"),
    ("eigs_levels", "deformed",
     "survives: no closed-form ladder at beta > 0 (ROADMAP item 2)"),
    # spectrum passes under the absolute SPECTRUM_TOL; the deformed run
    # has no ladder: no deformed entry
    ("oscillator_levels", "flat", {"convergence_spectrum"}),
]


@pytest.mark.parametrize("mutant, run, caught", MATRIX,
                         ids=[f"{m}-{r}" for m, r, _ in MATRIX])
def test_mutant_is_caught_by_the_pinned_checks(mutant, run, caught,
                                               monkeypatch, fresh_checks,
                                               tmp_path):
    MUTANTS[mutant](monkeypatch)
    out = tmp_path / "report.json"
    code = main([*RUNS[run], "--out", str(out)])
    with open(out, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    failing = {c["name"] for c in report["checks"] if not c["passed"]}
    expected = set() if isinstance(caught, str) else caught
    assert failing == expected
    assert code == (1 if expected else 0)
