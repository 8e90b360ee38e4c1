"""Positive controls of the verify-lemmas suites: with the function a
suite checks replaced by a wrong one, the suite must count violations
and name the first counterexample."""

import dataclasses

import numpy as np
import pytest

from alphax import canonical_form, enumeration, graphs, lemmas, minors, spectral
from alphax.minors import StructureReport, StructureViolation


def test_closed_form_counts_every_failing_check(monkeypatch):
    assert lemmas.join_grid(12)[0].violations == 0
    exact = spectral.join_quotient_index
    monkeypatch.setattr(spectral, "join_quotient_index", lambda n, s, a: exact(n, s, a) + 1e-6)
    tally = lemmas.join_grid(12)[0]
    assert (tally.checks, tally.violations) == (270, 270)
    assert tally.first.startswith("s=1 n=2 alpha=0.1: ")


@pytest.mark.parametrize("grid_n", [4, 12])
def test_one_walk_of_the_grid_feeds_both_tallies(monkeypatch, grid_n):
    # with every index read as 0, every check of both suites fails: the
    # index is below each closed form and each lower bound
    zero = spectral.SpectralResult(rho=0.0, vector=np.ones(1), residual=0.0, lower=0.0, upper=0.0)
    monkeypatch.setattr(spectral, "alpha_index", lambda g, a: zero)
    grid = 9 * sum(grid_n - s for s in (1, 2, 3))
    closed, bounds = lemmas.join_grid(grid_n)
    assert (closed.checks, closed.violations) == (grid, grid)
    assert (bounds.checks, bounds.violations) == (grid, grid)
    assert closed.first.startswith("s=1 n=2 alpha=0.1: ")
    assert bounds.first.startswith("k=1 n=2 alpha=0.1: rho=0.0 ")


def _above_rho(original):
    # the index of a graph on n vertices is at most its maximum degree n - 1
    return lambda n, k, a: dataclasses.replace(original(n, k, a), basic=float(n))


def _planted_violation(original):
    return lambda g, s, a_set, b_set: StructureReport(
        ok=False, violations=(StructureViolation("planted", (0,)),))


def _without_construction(original):
    def search(n, alpha, family):
        construction = canonical_form(family.construction(n))
        rest = tuple(g for g in enumeration.enumerate_graphs(n)
                     if canonical_form(g) != construction)
        part = enumeration.search_part(n, family, rest)
        return enumeration.merge_reports([part], (alpha,), source="rest")[0]
    return search


@pytest.mark.parametrize("suite, module, name, wrong", [
    (lambda: lemmas.join_grid(8)[1], spectral, "nikiforov_lower_bound", _above_rho),
    (lambda: lemmas.intersection(50, 0), graphs, "intersection_lower_bound",
     lambda original: lambda sets: (0, 1)),
    (lambda: lemmas.structure(5), minors, "check_fs_structure", _planted_violation),
    (lambda: lemmas.corollary(5), enumeration, "search_extremal", _without_construction),
], ids=["nikiforov", "intersection", "structure", "corollary"])
def test_suite_reports_a_planted_failure(monkeypatch, suite, module, name, wrong):
    clean = suite()
    assert clean.checks > 0 and clean.violations == 0 and clean.first is None
    monkeypatch.setattr(module, name, wrong(getattr(module, name)))
    planted = suite()
    assert planted.checks == clean.checks
    assert planted.violations > 0 and planted.first is not None
