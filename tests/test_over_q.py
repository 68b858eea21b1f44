"""The verifier runs over Q: tau = i*sigma and rational coefficients.

`data/sigma_form.json` holds Delta, d_a, d^a and the (k, l) symbols of one
seeded tensor at n = 1 and n = 2, written as JSON term lists by the
sigma-form implementation that the tau form replaced, whose coefficients were
Gaussian rationals.  The dictionary tests map today's tau-form objects back
through sigma = -i*tau, d/dtau = -i d/dsigma and the symbol phase, on the
Gaussian-rational oracle ring, and compare them with those records.
"""

import json
import random
from pathlib import Path

import pytest

from subsym.ambient import (
    ambient_laplacian,
    central_element,
    compose_decompose,
    higher_symmetry_op,
    random_traceless,
)
from subsym.boundary import (
    BoundaryModel,
    FrameFields,
    extend,
    phi_pullback,
    sublaplacian,
    tangential_ops,
)
from subsym.scalars import GR_I, GR_ONE, RZERO
from subsym.symbols import extract_all_symbols
from subsym.tensor import SparseTensor
from support import GaussianPoly, GaussianRing, parse_gr, parse_rat, to_gaussian

DATA = json.loads((Path(__file__).parent / "data" / "sigma_form.json").read_text())
MINUS_I = GR_I * -1


def _i_power(unit, p):
    out = GR_ONE
    for _ in range(p):
        out = out * unit
    return out


def _record(n):
    rec = DATA[f"n={n}"]
    G = GaussianRing(rec["ring"])
    return rec, G


def _poly(G, data):
    return GaussianPoly(G, {tuple(e): parse_gr(c) for e, c in data})


def _to_sigma(m, G, p, phase=GR_ONE):
    """phase * p(tau = i sigma) in the sigma-form oracle ring."""
    src = GaussianRing(m.ring.names)
    return to_gaussian(p, src).substitute({"tau": G.gen("sigma").scale(GR_I)}, G).scale(phase)


def _op_to_sigma(m, G, op):
    """sum_alpha p_alpha d^alpha with d_tau^j = (-i)^j d_sigma^j."""
    return {alpha: _to_sigma(m, G, p, _i_power(MINUS_I, alpha[-1])) for alpha, p in op.terms.items()}


@pytest.mark.parametrize("n", [1, 2])
def test_operators_match_sigma_form_records(n):
    rec, G = _record(n)
    m = BoundaryModel(n)
    assert rec["ring"][:-1] == list(m.ring.names[:-1]) and rec["ring"][-1] == "sigma"
    assert m.ring.names[-1] == "tau"
    d_hol, d_raised, _ = tangential_ops(m)
    w1, w2 = rec["weights"]
    pairs = [(sublaplacian(m, w1, w2), rec["sublaplacian"])]
    pairs += list(zip(d_hol, rec["d_hol"])) + list(zip(d_raised, rec["d_raised"]))
    assert len(pairs) == 1 + 2 * n
    for op, data in pairs:
        want = {tuple(alpha): _poly(G, p) for alpha, p in data}
        assert _op_to_sigma(m, G, op) == want


@pytest.mark.parametrize("n", [1, 2])
def test_symbols_match_sigma_form_records(n):
    # sigma-form symbol = (-i)^p * tau-form symbol, p the number of tau slots
    rec, G = _record(n)
    m = BoundaryModel(n)
    T = SparseTensor(2, n + 2, {(tuple(B), tuple(A)): parse_rat(v) for B, A, v in rec["tensor"]})
    syms = extract_all_symbols(m, T)
    assert sorted(syms) == [(k, l) for k, l, _ in rec["symbols"]]
    compared = 0
    for k, l, comps in rec["symbols"]:
        phase = _i_power(MINUS_I, T.k - k - l)
        got = {key: _to_sigma(m, G, p, phase) for key, p in syms[(k, l)].components.items()}
        assert got == {(tuple(a), tuple(b)): _poly(G, p) for a, b, p in comps}
        compared += len(comps)
    assert compared


RAT = type(RZERO)


def _op_coeffs(op):
    return [c for p in op.terms.values() for c in p.terms.values()]


@pytest.mark.parametrize("n", [1, 2])
def test_one_coefficient_field(n):
    """Every coefficient on the hot path is a backend rational."""
    m = BoundaryModel(n)
    amb = m.ambient
    rng = random.Random(3)
    w1, w2 = 0, -n
    fr = FrameFields(m)
    polys = fr.X_up + fr.X_dn + fr.Z_up + fr.Z_dn
    polys += [p for frame in (fr.Y_up, fr.Y_dn) for vec in frame.values() for p in vec]
    F = sum(m.monomials(2), m.ring.zero())
    polys += [extend(m, F, w1, w2), phi_pullback(m, extend(m, F, w1, w2))]
    T = SparseTensor.random_column_symmetric(2, n + 2, rng, density=0.3)
    polys += [p for S in extract_all_symbols(m, T).values() for p in S.components.values()]
    d_hol, d_raised, dtau = tangential_ops(m)
    V, W = random_traceless(n, rng), random_traceless(n, rng)
    ops = [*d_hol, *d_raised, dtau, sublaplacian(m, w1, w2), central_element(amb),
           higher_symmetry_op(amb, V), ambient_laplacian(amb)]
    coeffs = [c for p in polys for c in p.terms.values()]
    coeffs += [c for op in ops for c in _op_coeffs(op)]
    parts = compose_decompose(amb, V, W, w1, w2)
    coeffs += [parts.vw0, *parts.U.entries.values(), *parts.vw1.entries.values()]
    assert len(coeffs) > 100
    assert {type(c) for c in coeffs} == {RAT}
