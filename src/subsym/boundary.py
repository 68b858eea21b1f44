"""The flat CR model: boundary ring, frame fields, pullback along the cone
section, canonical homogeneous extension, sub-Laplacian, the reduction
identity and the suite that checks it.  The ambient model comes from
``model``; this module does not load ``ambient``.

Boundary coordinates are z^1..z^n, their conjugates zb^1..zb^n and
tau = i*sigma, where sigma is the real contact coordinate.  The lowered
combinations z_a = g_a zb^a appear throughout; with the diagonal metric they
are unit multiples of the conjugates.  The section of the null cone is
phi(z, tau) = (1, z^a, -z^a z_a/2 + tau) and every ambient identity is
checked after pulling back along it: an ambient operator D is read on the
boundary as induce(D), the pullback of D applied to the canonical extension.

Working in tau makes every object rational.  The dictionary to the sigma
form is d/dsigma = i d/dtau:

- section: x^inf -> -zz/2 + tau, x_0 -> -zz/2 - tau;
- extension: tau = (x^inf/x^0 - x_0/x_inf)/2;
- tangential operators: d_a = d/dz^a - (1/2) z_a d/dtau and
  d^a = g_a d/dzb^a + (1/2) z^a d/dtau;
- sub-Laplacian: first-order term -((w1-w2)/2) d/dtau.

Every identity checked here is C-linear in rational inputs, so checking it
over Q certifies the complex statement.

The tangential operators are *defined* operationally: each ambient derivative
of the (0,0) extension is pulled back and multiplied by its component of a
cone-adapted frame (pullback is a ring homomorphism, so this is the pullback
of the frame derivative).  The closed forms above are derived artifacts and
the test suite checks them against the operational definition, which
immunizes the build against sign-convention drift.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .model import AmbientModel, ambient_laplacian
from .report import CaseResults, VerificationReport
from .rings import LaurentPoly, Ring, Substitution
from .scalars import accumulate, rat
from .weyl import WeylOperator


class BoundaryModel:
    def __init__(self, n, g_diag=None):
        self.ambient = AmbientModel(n, g_diag)  # checks n and g_diag
        self.n = n
        self.g_diag = self.ambient.g_diag
        names = (
            [f"z{a}" for a in range(1, n + 1)]
            + [f"zb{a}" for a in range(1, n + 1)]
            + ["tau"]
        )
        self.ring = Ring(names)

    def z(self, a) -> LaurentPoly:
        """Holomorphic coordinate z^a, 1-based."""
        return self.ring.gen(f"z{a}")

    def zb(self, a) -> LaurentPoly:
        return self.ring.gen(f"zb{a}")

    def z_low(self, a) -> LaurentPoly:
        """Lowered z_a = g_a * conj(z^a)."""
        return self.zb(a).scale(self.g_diag[a - 1])

    def tau(self) -> LaurentPoly:
        """tau = i*sigma."""
        return self.ring.gen("tau")

    def zz_half(self) -> LaurentPoly:
        """sum_a z^a z_a / 2 (a real quantity on the model)."""
        out = self.ring.zero()
        for a in range(1, self.n + 1):
            out = out + self.z(a) * self.z_low(a)
        return out.scale(rat(1, 2))

    def monomials(self, max_degree):
        """All boundary monomials of total degree <= max_degree."""
        names = self.ring.names
        for total in range(max_degree + 1):
            for exps in itertools.product(range(total + 1), repeat=len(names)):
                if sum(exps) == total:
                    yield self.ring.monomial(
                        {nm: e for nm, e in zip(names, exps) if e}
                    )


# ---------------------------------------------------------------------------
# frame fields on the section (z^0 = 1, rho = 0)


class FrameFields:
    """Cone-adapted frames evaluated on the image of the section.

    Components are indexed by the ambient index A in {0, 1..n, inf}; entries
    are boundary polynomials.  X_up/X_dn are the position vector and its
    lowered conjugate, Z the cone direction, Y_up[b]/Y_dn[c] the tangent
    frames with one boundary index.
    """

    def __init__(self, m: BoundaryModel):
        n = m.n
        zero = m.ring.zero()
        one = m.ring.one()
        tau = m.tau()
        self.X_up = [one] + [m.z(a) for a in range(1, n + 1)] + [tau - m.zz_half()]
        self.X_dn = [-tau - m.zz_half()] + [m.z_low(a) for a in range(1, n + 1)] + [one]
        self.Z_up = [zero] * (n + 1) + [one]
        self.Z_dn = [one] + [zero] * (n + 1)
        self.Y_up = {}
        self.Y_dn = {}
        for b in range(1, n + 1):
            col = [zero] * (n + 2)
            col[b] = one
            col[n + 1] = -m.z_low(b)
            self.Y_up[b] = col
            row = [-m.z(b)] + [zero] * (n + 1)
            row[b] = one
            self.Y_dn[b] = row


@lru_cache(maxsize=32)
def frame_fields(m: BoundaryModel) -> FrameFields:
    """The frames of m, built once per model; callers only read them."""
    return FrameFields(m)


@lru_cache(maxsize=32)
def column_factors(m: BoundaryModel):
    """(lift, phi): the inclusion ``lift`` of the boundary ring into L, the
    boundary ring extended by the label generators u1..un, v1..vn (L is
    lift.target), and for each column (B, A) of an ambient tensor over C^{n+2}

        phi(B, A) = X^A X_B + sum_a u_a Y_a[B] X^A - sum_b v_b Y^b[A] X_B

    in L, read off the frames (X^A = X_up[A], X_B = X_dn[B], Y_a = Y_dn[a],
    Y^b = Y_up[b]).  A column of a frame product is a tau column, an upper
    column of label a or a lower one of label b; phi sums the three.  Built
    once per model; callers only read them."""
    fr = frame_fields(m)
    labels = range(1, m.n + 1)
    L = Ring(m.ring.names + tuple(f"u{a}" for a in labels) + tuple(f"v{b}" for b in labels))
    lift = Substitution(m.ring, {name: L.gen(name) for name in m.ring.names}, L)
    X_up = [p.substitute(lift) for p in fr.X_up]
    X_dn = [p.substitute(lift) for p in fr.X_dn]
    # sum_a u_a Y_a[B] per B, and sum_b v_b Y^b[A] per A
    up = [LaurentPoly.sum(L, [L.gen(f"u{a}") * fr.Y_dn[a][B].substitute(lift) for a in labels]) for B in range(m.n + 2)]
    dn = [LaurentPoly.sum(L, [L.gen(f"v{b}") * fr.Y_up[b][A].substitute(lift) for b in labels]) for A in range(m.n + 2)]
    cols = itertools.product(range(m.n + 2), repeat=2)
    return lift, {(B, A): X_up[A] * (X_dn[B] + up[B]) - dn[A] * X_dn[B] for B, A in cols}


@lru_cache(maxsize=32)
def label_derivatives(m: BoundaryModel):
    """(sum_a u_a d^a, sum_b v_b d_b): the raised and the holomorphic
    tangential derivatives of ``tangential_ops``, lifted to the ring L of
    ``column_factors`` and weighted by the label generators.  On the
    generating polynomial of a symbol they are its symmetrized derivatives
    with one more upper, resp. lower, index.  Built once per model."""
    lift = column_factors(m)[0]
    L = lift.target
    pad = (0,) * (L.arity - m.ring.arity)
    d_hol, d_raised, _ = tangential_ops(m)

    def weighted(ops, kind):
        terms = {}
        for a, op in enumerate(ops, 1):
            for alpha, p in op.terms.items():
                accumulate(terms, alpha + pad, L.gen(f"{kind}{a}") * p.substitute(lift))
        return WeylOperator(L, terms)

    return weighted(d_raised, "u"), weighted(d_hol, "v")


# ---------------------------------------------------------------------------
# pullback and extension


@lru_cache(maxsize=32)
def section(m: BoundaryModel) -> Substitution:
    """The pullback along the section: x^0 -> 1, x^a -> z^a, x^inf -> -zz/2 +
    tau, x_0 -> -zz/2 - tau, x_a -> z_a, x_inf -> 1; these images are the
    position vector X_up and its lowered conjugate X_dn of the frames.  Built
    once per model, with the powers of its images kept as they are used."""
    fr = frame_fields(m)
    amb = m.ambient
    return Substitution(amb.ring, dict(zip(amb.upper_names + amb.lower_names, fr.X_up + fr.X_dn)), m.ring)


def phi_pullback(m: BoundaryModel, f: LaurentPoly) -> LaurentPoly:
    """Substitute the section (see ``section``)."""
    return f.substitute(section(m))


@lru_cache(maxsize=32)
def extension_map(m: BoundaryModel) -> Substitution:
    """The images of the boundary generators used by the canonical extension:
    z^a -> x^a/x^0, zb^a -> g_a x_a/x_inf, tau -> (x^inf/x^0 - x_0/x_inf)/2;
    built once per model, with the powers of its images kept as they are
    used."""
    amb = m.ambient
    x0_inv = amb.ring.gen("x0", -1)
    xinf_low_inv = amb.ring.gen("x_inf", -1)
    images = {}
    for a in range(1, m.n + 1):
        images[f"z{a}"] = amb.up(a) * x0_inv
        images[f"zb{a}"] = (amb.dn(a) * xinf_low_inv).scale(m.g_diag[a - 1])
    images["tau"] = (amb.up(m.n + 1) * x0_inv - amb.dn(0) * xinf_low_inv).scale(rat(1, 2))
    return Substitution(m.ring, images, amb.ring)


def extend(m: BoundaryModel, F: LaurentPoly, w1: int, w2: int) -> LaurentPoly:
    """Canonical rho-independent (w1, w2)-homogeneous extension of F."""
    if not isinstance(w1, int) or not isinstance(w2, int):
        raise ValueError("polynomial extensions need integer weights")
    if F.ring != m.ring:
        raise ValueError("F must live in the boundary ring")
    amb = m.ambient
    body = F.substitute(extension_map(m))
    pref = amb.ring.gen("x0", w1) * amb.ring.gen("x_inf", w2)
    return pref * body


# ---------------------------------------------------------------------------
# tangential operators


@lru_cache(maxsize=32)
def tangential_ops(m: BoundaryModel):
    """(d_a for each a, raised d^a for each a, d_tau) as boundary Weyl
    operators, built once per model.

    Closed forms: d_a = d/dz^a - (1/2) z_a d_tau,
    d^a = g_a d/dzb^a + (1/2) z^a d_tau, d_tau = d/dtau.
    """
    ring = m.ring
    dtau = WeylOperator.derivative(ring, "tau")
    d_hol = tuple(
        WeylOperator.derivative(ring, f"z{a}")
        + WeylOperator.term(m.z_low(a).scale(rat(-1, 2)), {"tau": 1})
        for a in range(1, m.n + 1)
    )
    d_raised = tuple(
        WeylOperator.derivative(ring, f"zb{a}").scale(m.g_diag[a - 1])
        + WeylOperator.term(m.z(a).scale(rat(1, 2)), {"tau": 1})
        for a in range(1, m.n + 1)
    )
    return d_hol, d_raised, dtau


def tangential_op_operational(m: BoundaryModel, kind, a, F: LaurentPoly) -> LaurentPoly:
    """Chain-rule definition: the frame derivative of the (0,0) extension,
    each ambient derivative pulled back and multiplied by its boundary frame
    component.  kind is 'hol' (d_a), 'raised' (d^a) or 'tau' (d_tau)."""
    amb = m.ambient
    f = extend(m, F, 0, 0)
    if kind == "tau":
        return phi_pullback(m, amb.d_up(m.n + 1).apply(f) - amb.d_dn(0).apply(f))
    frames = frame_fields(m)
    if kind == "hol":
        d, frame = amb.d_up, frames.Y_up[a]
    elif kind == "raised":
        d, frame = amb.d_dn, frames.Y_dn[a]
    else:
        raise ValueError(kind)
    terms = [phi_pullback(m, d(B).apply(f)) * c for B, c in enumerate(frame) if c]
    return LaurentPoly.sum(m.ring, terms)


@lru_cache(maxsize=32)
def sublaplacian(m: BoundaryModel, w1, w2) -> WeylOperator:
    """(1/2) g^{ab}(d_a d_b-bar + d_b-bar d_a) - ((w1-w2)/2) d_tau, built once
    per model and weights; in sigma this is + i((w1-w2)/2) d_sigma.

    Normalization follows the reduction identity (the definition in the
    source adds the 1/2 only in the proof; this is the variant for which
    the reduction holds exactly)."""
    d_hol, d_raised, dtau = tangential_ops(m)
    out = WeylOperator.zero(m.ring)
    for a in range(m.n):
        out = out + (
            d_hol[a].compose(d_raised[a]) + d_raised[a].compose(d_hol[a])
        ).scale(rat(1, 2))
    return out + dtau.scale(rat(w2 - w1, 2))


# ---------------------------------------------------------------------------
# the reduction identity and its suite


def verify_reduction(m: BoundaryModel, F: LaurentPoly, w1: int, w2: int):
    """(lap of the extension) pulled back minus Delta F; None when exact."""
    if m.n + w1 + w2 != 0:
        raise ValueError("reduction requires n + w1 + w2 = 0")
    lhs = induce(m, ambient_laplacian(m.ambient), w1, w2, F)
    rhs = sublaplacian(m, w1, w2).apply(F)
    res = lhs - rhs
    return None if not res else res


def admissible_weights(n, max_abs_diff=4):
    """Integer (w1, w2) with n + w1 + w2 = 0, |w1 - w2| <= max_abs_diff and
    the parity w1 - w2 = n (mod 2) forced by integrality."""
    out = []
    for dw in range(-max_abs_diff, max_abs_diff + 1):
        if (dw - n) % 2 == 0:
            w1 = (-n + dw) // 2
            w2 = -n - w1
            out.append((w1, w2))
    return out


def induce(m: BoundaryModel, D: WeylOperator, w1: int, w2: int, F: LaurentPoly) -> LaurentPoly:
    """Boundary operator induced by an ambient operator at weights (w1, w2)."""
    return phi_pullback(m, D.apply(extend(m, F, w1, w2)))


def _suite_reduction(rep: VerificationReport, n=None, deg=3):
    def sweep(m, w1, w2, deg):
        monomials = list(m.monomials(deg))
        return CaseResults([f"F={F}: residual {res}" for F in monomials
                            if (res := verify_reduction(m, F, w1, w2)) is not None], len(monomials))

    ns = [1, 2] if n is None else [n]
    for n in ns:
        m = BoundaryModel(n)
        for (w1, w2) in admissible_weights(n, 4):
            rep.check(f"n={n} weights ({w1},{w2}): reduction exact, deg<={deg}", sweep(m, w1, w2, deg))
    # one mixed-signature pass
    n = ns[-1]
    if n >= 2:
        m = BoundaryModel(n, (1,) * (n - 1) + (-1,))
        rep.check(f"n={n} mixed signature: reduction exact", sweep(m, *admissible_weights(n, 2)[0], 2))
    return rep
