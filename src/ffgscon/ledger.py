"""Every derived protocol constant, computed in extended precision.

The chain runs h -> mu -> t -> (z, c, x, delta) -> the eight rejection
thresholds -> test probabilities -> soundness, completeness and gap bounds.
Because t grows like 848*G*m^2/mu^2 and the first threshold falls like
t^-6, these numbers blow through double range even for toy instances, so
everything here is mpmath at :data:`LEDGER_DPS` significant digits; double
mirrors are reported where representable.

Each threshold is evaluated along two independent paths (its composed
definition and its closed monomial form) and the two must agree to 1e-9
relative, guarding against transcription slips.

The ``ledger`` report adds the paper's two quantitative claims: the
two-witness (QMA(2)) wrapper's product-test tuning, :func:`qma2_tuning`, and
the gap bound next to its constant-free order delta^13 m^-32 G^-10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import mpmath
import numpy as np
from mpmath import mpf

from .instances import GsconInstance

LEDGER_DPS = 60
DICT_DIGITS = 30  # significant digits of each value in a report's ledger block
REPORT_DIGITS = 25  # significant digits of each value printed by ``ffgscon ledger``

PRODUCT_TEST_SOUNDNESS = mpf(11) / 512  # product-test rejection >= (11/512)(1-s')^2 (arXiv:1001.0017)


class LedgerInvariantError(ValueError):
    """A derived constant violated one of its defining constraints."""


THRESHOLD_FORMULAS = (
    "r1 = delta^2/8 = 1/(32 G^4 m^8 t^6)",
    "r2 = c x^2/4 = 1/(4 G m^6 t^4)",
    "r3 = 1/(5 G m^4 t^2)",
    "r4 = z/4 = mu^2/(4 m^3)",
    "r5 = (1/(8 m G)) (z/4) = mu^2/(32 G m^4)",
    "r6 = (1/(2m) - 6 mu) h^2/4",
    "r7 = (1/(2m) - 6 mu) ((eta3+h)^2/2 - (eta3+h)^4/8)",
    "r8 = eta2/(8 R m)",
)


@dataclass(frozen=True)
class ParameterLedger:
    m: int
    G: int
    R: int
    eta2: mpf
    eta3: mpf
    eta4: mpf
    delta_promise: mpf
    h: mpf
    mu: mpf
    t: mpf
    c: mpf
    x: mpf
    delta_small: mpf
    z: mpf
    r: tuple
    p: tuple
    s_prime: mpf
    one_minus_s_prime: mpf  # 1/sum(1/r_i) carried exactly; s_prime itself rounds to 1
    c_prime_lower: mpf
    c_prime_deficit: mpf  # (p7/2m)(eta3^2/2 - eta3^4/8), the honest end-test loss
    cs_gap: mpf  # (1 - s') - deficit = p7 * gamma, the exact completeness-soundness gap
    gamma_lower: mpf
    gap_lower: mpf
    notes: tuple

    def p_float(self) -> list[float]:
        return [float(v) for v in self.p]

    @cached_property
    def round_cdf(self) -> np.ndarray:
        """Cumulative test-choice distribution p_1..p_8 of one round, in doubles (read-only)."""
        cdf = np.cumsum(self.p_float())
        cdf.flags.writeable = False
        return cdf

    @cached_property
    def gap_monomial(self) -> mpf:
        """The constant-free order of the gap bound, delta^13 m^-32 G^-10."""
        with mpmath.workdps(LEDGER_DPS):
            return self.delta_promise**13 * mpf(self.m) ** -32 * mpf(self.G) ** -10

    def as_decimal_dict(self) -> dict:
        digits = DICT_DIGITS
        scalars = {
            "h": self.h, "mu": self.mu, "t": self.t, "c": self.c, "x": self.x,
            "delta_small": self.delta_small, "z": self.z, "s_prime": self.s_prime,
            "one_minus_s_prime": self.one_minus_s_prime,
            "c_prime_lower": self.c_prime_lower, "c_prime_deficit": self.c_prime_deficit,
            "cs_gap": self.cs_gap, "gamma_lower": self.gamma_lower,
            "gap_lower": self.gap_lower,
        }
        out = {k: mpmath.nstr(v, digits) for k, v in scalars.items()}
        out["r"] = [mpmath.nstr(v, digits) for v in self.r]
        out["p"] = [mpmath.nstr(v, digits) for v in self.p]
        return out

    def report_lines(self) -> list[str]:
        digits = REPORT_DIGITS
        def mirror(v) -> str:
            f = float(v)
            if f == 0.0 and v != 0:
                return "double: underflow"
            if math.isinf(f):
                return "double: overflow"
            return f"double: {f!r}"

        lines = [
            f"instance: m={self.m} G={self.G} R={self.R} "
            f"eta2={mpmath.nstr(self.eta2, 12)} eta3={mpmath.nstr(self.eta3, 12)} "
            f"eta4={mpmath.nstr(self.eta4, 12)} delta={mpmath.nstr(self.delta_promise, 12)}",
            f"h  = min{{(eta4-eta3)/4, sqrt(eta2/R)/6}} = {mpmath.nstr(self.h, digits)} ({mirror(self.h)})",
            f"mu = h^2/(144 m (eta3+h))             = {mpmath.nstr(self.mu, digits)} ({mirror(self.mu)})",
            f"t  = 848 G m^2 / mu^2                 = {mpmath.nstr(self.t, digits)} ({mirror(self.t)})",
            f"z  = mu^2/m^3                         = {mpmath.nstr(self.z, digits)} ({mirror(self.z)})",
            f"c  = 1/(G m^2 t^2)                    = {mpmath.nstr(self.c, digits)} ({mirror(self.c)})",
            f"x  = 1/(m^2 t)                        = {mpmath.nstr(self.x, digits)} ({mirror(self.x)})",
            f"delta = c x/(2G)                      = {mpmath.nstr(self.delta_small, digits)} ({mirror(self.delta_small)})",
        ]
        for i in range(8):
            lines.append(
                f"{THRESHOLD_FORMULAS[i]} : r{i+1} = {mpmath.nstr(self.r[i], digits)} ({mirror(self.r[i])}), "
                f"p{i+1} = {mpmath.nstr(self.p[i], digits)}"
            )
        lines += [
            f"s'      = 1 - 1/sum(1/r_i)            = {mpmath.nstr(self.s_prime, digits)}",
            f"1 - s'  = p_i r_i (all i)             = {mpmath.nstr(self.one_minus_s_prime, digits)} ({mirror(self.one_minus_s_prime)})",
            f"1 - c'  <= (p7/2m)(eta3^2/2 - eta3^4/8) = {mpmath.nstr(self.c_prime_deficit, digits)} ({mirror(self.c_prime_deficit)})",
            f"c' - s' = p7 (r7 - honest end-test loss) = {mpmath.nstr(self.cs_gap, digits)} ({mirror(self.cs_gap)})",
            f"gamma   >= h^2 (eta3+h)/(16 m)        = {mpmath.nstr(self.gamma_lower, digits)} ({mirror(self.gamma_lower)})",
            f"c' - s' >= p7 * gamma_lower           = {mpmath.nstr(self.gap_lower, digits)} ({mirror(self.gap_lower)})",
        ]
        tun = qma2_tuning(self.c_prime_deficit, self.one_minus_s_prime)
        with mpmath.workdps(LEDGER_DPS):
            ratio = self.gap_lower / self.gap_monomial
        lines += [
            "QMA(2): product test with probability p, rejecting >= (11/512)(1-s')^2 (arXiv:1001.0017)",
            f"1 - p   = ((11/512)(1-s')^2 - (c'-s')^2/50) / ((1-c') + (11/512)(1-s')^2) = "
            f"{mpmath.nstr(tun.one_minus_p, digits)} ({mirror(tun.one_minus_p)})",
            f"1 - c'' = (1-p)(1-c')                 = {mpmath.nstr(tun.one_minus_c_double_prime, digits)} "
            f"({mirror(tun.one_minus_c_double_prime)})",
            f"1 - s'' >= p (11/512)(1-s')^2         = {mpmath.nstr(tun.one_minus_s_double_prime_upper, digits)} "
            f"({mirror(tun.one_minus_s_double_prime_upper)})",
            f"c'' - s'' >= (c'-s')^2/50             = {mpmath.nstr(tun.gap2_lower, digits)} ({mirror(tun.gap2_lower)})",
            f"gap order delta^13 m^-32 G^-10        = {mpmath.nstr(self.gap_monomial, digits)} ({mirror(self.gap_monomial)})",
            f"(c' - s' lower) / gap order           = {mpmath.nstr(ratio, digits)} ({mirror(ratio)})",
        ]
        lines += [f"note: {n}" for n in self.notes]
        return lines


def _require(cond: bool, constraint: str):
    if not cond:
        raise LedgerInvariantError(f"violated constraint: {constraint}")


def _dual_path(name: str, a: mpf, b: mpf):
    rel = abs(a - b) / abs(b)
    _require(rel <= mpf("1e-9"), f"{name}: two evaluation paths disagree (rel {mpmath.nstr(rel, 8)})")
    return a


def derive_parameters(inst: GsconInstance) -> ParameterLedger:
    """Populate the full ledger for a validated instance; hard-errors name the constraint."""
    with mpmath.workdps(LEDGER_DPS):
        m = mpf(inst.m)
        G = mpf(inst.G)
        R = mpf(inst.R)
        eta2, eta3, eta4 = mpf(inst.eta2), mpf(inst.eta3), mpf(inst.eta4)
        delta_promise = mpf(inst.delta)

        _require(delta_promise > 0, "delta > 0")
        _require(eta2 >= delta_promise, "eta2 - 0 >= delta")
        _require(eta3 >= 0, "eta3 >= 0")
        _require(eta4 - eta3 >= delta_promise, "eta4 - eta3 >= delta")

        h = min((eta4 - eta3) / 4, mpmath.sqrt(eta2 / R) / 6)
        _require(eta3 + h <= mpmath.sqrt(mpf(2)), "eta3 + h <= sqrt(2)")
        mu = h**2 / (144 * m * (eta3 + h))
        _require(6 * mu <= h, "6 mu <= h")
        _require(mu < 1 / (36 * m), "mu < 1/(36 m)")
        t = 848 * G * m**2 / mu**2
        z = mu**2 / m**3
        c = 1 / (G * m**2 * t**2)
        x = 1 / (m**2 * t)
        delta_small = _dual_path("delta", c * x / (2 * G), 1 / (2 * t**3 * G**2 * m**4))

        half_over_m = 1 / (2 * m)
        a_end = eta3 + h
        end_fail = a_end**2 / 2 - a_end**4 / 8
        r = (
            _dual_path("r1", delta_small**2 / 8, 1 / (32 * G**4 * m**8 * t**6)),
            _dual_path("r2", c * x**2 / 4, 1 / (4 * G * m**6 * t**4)),
            _dual_path("r3", (1 / mpf(5)) * (1 / G) * (1 / m**4) * (1 / t**2), 1 / (5 * G * m**4 * t**2)),
            _dual_path("r4", z / 4, mu**2 / (4 * m**3)),
            _dual_path("r5", (1 / (8 * m * G)) * (z / 4), mu**2 / (32 * G * m**4)),
            _dual_path("r6", (half_over_m - 6 * mu) * h**2 / 4, h**2 / (8 * m) - mpf(3) / 2 * mu * h**2),
            _dual_path("r7", (half_over_m - 6 * mu) * end_fail, end_fail / (2 * m) - 6 * mu * end_fail),
            _dual_path("r8", eta2 / (8 * R * m), (eta2 / R) / (8 * m)),
        )
        for i, ri in enumerate(r):
            _require(0 < ri < 1, f"r{i+1} in (0, 1)")

        inv_sum = sum(1 / ri for ri in r)
        p = tuple((1 / ri) / inv_sum for ri in r)
        one_minus_s = 1 / inv_sum  # kept as its own quantity: 1 - (1 - 1e-100) rounds to 0
        s_prime = 1 - one_minus_s

        for i in range(8):
            rel = abs(p[i] * r[i] - one_minus_s) / one_minus_s
            _require(rel <= mpf("1e-12"), f"p{i+1} r{i+1} == 1 - s'")
        _require(abs(sum(p) - 1) <= mpf("1e-12"), "sum p_i == 1")

        c_deficit = (p[6] / (2 * m)) * (eta3**2 / 2 - eta3**4 / 8)
        c_prime_lower = 1 - c_deficit
        cs_gap = p[6] * (r[6] - (eta3**2 / 2 - eta3**4 / 8) / (2 * m))  # == (1-s') - deficit
        gamma_lower = h**2 * (eta3 + h) / (16 * m)
        gap_lower = p[6] * gamma_lower
        _require(gap_lower > 0, "gap_lower > 0")
        _require(cs_gap >= gap_lower, "c' - s' >= p7 h^2 (eta3+h) / (16 m)")

        notes = (
            "mu is held below 1/(36 m); a looser 1/(24 m) would already keep the low-energy margin positive",
            "the uniform-test threshold uses the projection-success factor in its 1/(m t) form throughout",
        )
        return ParameterLedger(
            m=inst.m, G=inst.G, R=inst.R,
            eta2=eta2, eta3=eta3, eta4=eta4, delta_promise=delta_promise,
            h=h, mu=mu, t=t, c=c, x=x, delta_small=delta_small, z=z,
            r=r, p=p, s_prime=s_prime, one_minus_s_prime=one_minus_s,
            c_prime_lower=c_prime_lower, c_prime_deficit=c_deficit, cs_gap=cs_gap,
            gamma_lower=gamma_lower, gap_lower=gap_lower,
            notes=notes,
        )


# ---------------------------------------------------------------------------
# two-witness tuning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Qma2Tuning:
    one_minus_p: mpf
    one_minus_c_double_prime: mpf
    one_minus_s_double_prime_upper: mpf
    gap2_lower: mpf


def qma2_tuning(one_minus_c, one_minus_s) -> Qma2Tuning:
    """Tune the product-test probability p of the two-witness wrapper.

    The wrapper runs the product test with probability p and the protocol
    otherwise, so c'' = p + (1-p) c' and s'' <= 1 - p (11/512)(1-s')^2; the
    chosen p makes c'' - s''_upper equal (1/50)(c'-s')^2 exactly.  Every
    quantity is carried as its complement: on a real ledger c', s' and p all
    round to 1 at :data:`LEDGER_DPS` digits.
    """
    with mpmath.workdps(LEDGER_DPS):
        one_minus_c = mpf(one_minus_c)
        one_minus_s = mpf(one_minus_s)
        if not (0 <= one_minus_c < one_minus_s <= 1):
            raise ValueError(
                f"need 0 <= 1-c' < 1-s' <= 1, got 1-c'={mpmath.nstr(one_minus_c, 12)}, "
                f"1-s'={mpmath.nstr(one_minus_s, 12)}"
            )
        target = (one_minus_s - one_minus_c) ** 2 / 50
        product_reject = PRODUCT_TEST_SOUNDNESS * one_minus_s**2
        one_minus_p = (product_reject - target) / (one_minus_c + product_reject)
        _require(0 <= one_minus_p <= 1, f"p in [0, 1] (got 1 - p = {mpmath.nstr(one_minus_p, 12)})")
        one_minus_c2 = one_minus_p * one_minus_c
        one_minus_s2 = (1 - one_minus_p) * product_reject
        gap2 = one_minus_s2 - one_minus_c2
        _require(gap2 >= target * (1 - mpf("1e-12")), "c'' - s''_upper >= (1/50)(c'-s')^2")
        return Qma2Tuning(one_minus_p, one_minus_c2, one_minus_s2, gap2)
