"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines;
tolerances and trial counts are pinned here and must not be loosened.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from curvlab.invariants import (InvariantPolynomial, functional_density,
                                pfaffian_of, rho_phi, xi_k)
from curvlab.models import (berger_product, flat_chart, killing_field_T,
                            round_sphere_chart)
from curvlab.scalars import RATIONAL
from curvlab.suites import (suite_ac_identities, suite_berger,
                            suite_core_identities, suite_lemmas,
                            suite_naturality, suite_product_factorization,
                            suite_thm_invariance, suite_thm_pfaffian)
from curvlab.tensors import generalized_delta, is_zero_tensor

_T0 = time.perf_counter()


def _report(num: int, label: str, rep, budget: float | None = None,
            elapsed: float | None = None):
    status = "PASS" if rep.passed else "FAIL"
    extra = ""
    worst = max((c.residual for c in rep.checks if c.residual is not None),
                default=0.0)
    if worst:
        extra = f" (max residual {worst:.2e})"
    if elapsed is not None:
        extra += f" [{elapsed:.1f}s]"
    print(f"[ACCEPTANCE] criterion {num}: {status} - {label}{extra}",
          flush=True)
    if not rep.passed:
        print(rep.table(), flush=True)
    assert rep.passed, f"criterion {num} failed"
    if budget is not None and elapsed is not None:
        assert elapsed < budget, f"criterion {num} exceeded {budget}s budget"


def test_criterion_1_berger_reproduction():
    t0 = time.perf_counter()
    rep = suite_berger(t=Fraction(4), exact=True)
    dt = time.perf_counter() - t0
    names = " / ".join(c.name for c in rep.checks)
    assert "star rho^Phi = -(8t(t-1)^2/3) alpha^beta^gamma" in names
    _report(1, "Berger reproduction at t=4, exact rational", rep,
            budget=5.0, elapsed=dt)


def test_criterion_2_thm_invariance():
    t0 = time.perf_counter()
    rep = suite_thm_invariance(model="random4", trials=20, seed=7, tol=1e-8)
    dt = time.perf_counter() - t0
    _report(2, "conformal invariance of xi and rho (20 charts)",
            rep, budget=120.0, elapsed=dt)


def test_criterion_3_thm_pfaffian():
    t0 = time.perf_counter()
    rep = suite_thm_pfaffian(model="random4", trials=20, seed=11, tol=1e-8)
    dt = time.perf_counter() - t0
    _report(3, "Pfaffian decomposition of xi (20 charts + exact Berger)",
            rep, elapsed=dt)


def test_criterion_4_ac_identities():
    t0 = time.perf_counter()
    rep = suite_ac_identities(model="random6", trials=10, seed=13, tol=1e-7)
    dt = time.perf_counter() - t0
    _report(4, "dimensional identities at n=6, k=2 (10 charts)", rep,
            elapsed=dt)


def test_criterion_5_lemmas():
    t0 = time.perf_counter()
    rep = suite_lemmas(trials=10, seed=5, tol=1e-7)
    dt = time.perf_counter() - t0
    _report(5, "transformation/differential lemmas over 10 seeds", rep,
            elapsed=dt)


def test_criterion_6_naturality():
    t0 = time.perf_counter()
    rep = suite_naturality(seed=17, jet_order=4)
    dt = time.perf_counter() - t0
    assert rep.extras.get("rank") == 4
    _report(6, "dim-4 naturality: Bach checks and rank-4 linear system",
            rep, elapsed=dt)


def test_criterion_7_functional_values():
    from curvlab.report import VerificationReport, check_exact
    rep = VerificationReport("acceptance7", "berger_product")
    phi = InvariantPolynomial.pair_swap()
    ctx4 = berger_product(Fraction(4))
    st4 = ctx4.stack
    T = killing_field_T(ctx4)
    rep.add(check_exact("Xi density on T = 0 at t=4",
                        not functional_density(ctx4, xi_k(st4, 2), T)))
    rep.add(check_exact("P^Phi density on T = 48 at t=4",
                        functional_density(ctx4, rho_phi(st4, phi), T) == 48))
    ctx1 = berger_product(Fraction(1))
    rep.add(check_exact("P^Phi density on T = 0 at t=1",
                        not functional_density(
                            ctx1, rho_phi(ctx1.stack, phi),
                            killing_field_T(ctx1))))
    from curvlab.conformal import clone_context
    flipped = clone_context(ctx4, ctx4.metric)
    flipped.orientation = -1
    rep.add(check_exact("orientation reversal flips the sign",
                        functional_density(
                            flipped, rho_phi(flipped.stack, phi), T) == -48))
    _report(7, "functional densities on the Killing field", rep)


def test_criterion_8_fixtures():
    from curvlab.report import VerificationReport, check_exact
    rep = VerificationReport("acceptance8", "fixtures")
    phi = InvariantPolynomial.pair_swap()
    fst = flat_chart(4, jet_order=3, exact=True).stack
    rep.add(check_exact("flat: xi = rho = 0 identically",
                        is_zero_tensor(xi_k(fst, 2).components)
                        and is_zero_tensor(rho_phi(fst, phi).components)))
    sst = round_sphere_chart(4, jet_order=3, exact=True).stack
    rep.add(check_exact("round S4: xi = rho = 0 identically",
                        is_zero_tensor(xi_k(sst, 2).components)
                        and is_zero_tensor(rho_phi(sst, phi).components)))
    # brute-force oracle: materialized delta^(4) against R = g (kn) g
    rm = sst.at_point(sst.rm_dduu)
    d = generalized_delta(4, 4, RATIONAL)
    oracle = np.einsum("abcdABCD,ABab,CDcd->", d.a, rm.a, rm.a) \
        * Fraction(1, 2)
    engine = sst.ctx.point_value(pfaffian_of(sst, 2, "riemann"))
    rep.add(check_exact(f"Pf2(Rm) on unit S4 equals the oracle ({oracle})",
                        engine == oracle and oracle == 48))
    _report(8, "flat and round-sphere fixtures", rep)


def test_criterion_9_algebraic_identities():
    t0 = time.perf_counter()
    rep = suite_core_identities()
    dt = time.perf_counter() - t0
    _report(9, "eps.eps, double star, delta traces (dims 2..5, exact)", rep,
            elapsed=dt)


def test_criterion_10_product_factorization():
    t0 = time.perf_counter()
    rep = suite_product_factorization(t=Fraction(4), tol=1e-6)
    dt = time.perf_counter() - t0
    _report(10, "pointwise factorization on the 8-dim product",
            rep, elapsed=dt)


def test_total_runtime_budget():
    total = time.perf_counter() - _T0
    print(f"[ACCEPTANCE] total runtime {total:.1f}s (budget 600s)",
          flush=True)
    assert total < 600.0
