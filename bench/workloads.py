"""Operation generators for the three benchmark workloads.

An operation is one ``affinelab`` command line (``argv``) together with the
construction data the independent checks need (``spec``).  A workload is an
endless sequence of rounds; every round holds the same operation kinds in the
same order, so each run attempts whole rounds and the share of failed
operations does not depend on the seed or the run length.

Inputs are drawn from ``random.Random`` seeded with a string built from the
workload, the seed and the round index, so a seed always yields the same
inputs.  No two operations of a run share a surface literal (``plane`` has
none); a drawn literal that was already used is drawn again.

Two kinds are the known faults of the decide workload and do not depend on
the seed: their literals come from the round index alone (see ``F1`` and
``F2`` below and the README).

Only the standard library is used here: the worker process imports this
module next to the program and must stay light.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("decide", "verify", "trajectory")

# --bound for the exact tori with irrational markings (fault F1).  The
# verdict is unknown at every bound; 3 keeps one such decision near 70 ms,
# a minority of a decide round, where the default 50 costs seconds.
F1_BOUND = 3
# --bound for approximate tori decided by the float matrix search.  The
# planted witnesses have entries of at most 2.
APPROX_BOUND = 6

VERIFY_SMALL = 50
VERIFY_LARGE = 2000

# Fixed, seed-independent operation run once before timing starts.  Its
# literals are never drawn for the timed operations.
WARMUP = {
    "decide": ["conjugacy", "cylinder:1", "cylinder:2pi*i/(2pi*i-1)",
               "--mode", "holomorphic"],
    "verify": ["verify", "cylinder:1", "cylinder:2pi*i/(2pi*i-1)",
               "--mode", "holomorphic", "--samples", str(VERIFY_SMALL)],
    "trajectory": ["trajectory", "torus:1,i", "--z", "1/2", "--u", "1+i",
                   "--t0", "-1", "--t1", "2", "--n", "50"],
}


@dataclass
class Op:
    kind: str
    argv: "list[str]"
    spec: dict = field(default_factory=dict)


# ---- literal formatting ----


def q(x: Fraction) -> str:
    """A rational literal, parenthesised when negative."""
    x = Fraction(x)
    body = str(abs(x.numerator)) if x.denominator == 1 else \
        f"{abs(x.numerator)}/{x.denominator}"
    return f"(-{body})" if x < 0 else body


def gauss(re: Fraction, im: Fraction) -> str:
    """A Gaussian-rational literal such as ``(3/2-1/4i)``."""
    re, im = Fraction(re), Fraction(im)
    if not im:
        return q(re)
    mag = abs(im)
    imag = (str(mag.numerator) if mag.denominator == 1
            else f"{mag.numerator}/{mag.denominator}") + "i"
    if not re:
        return f"(-{imag})" if im < 0 else imag
    sign = "-" if im < 0 else "+"
    return f"({q(re)}{sign}{imag})"


def dec(x: float, digits: int = 16) -> str:
    """A decimal literal; the grammar has no exponent and no bare point."""
    text = f"{abs(x):.{digits}f}"
    return f"(-{text})" if x < 0 else text


def dec_complex(z: complex, digits: int = 16) -> str:
    re = f"{abs(z.real):.{digits}f}"
    im = f"{abs(z.imag):.{digits}f}"
    return f"({'-' if z.real < 0 else ''}{re}{'-' if z.imag < 0 else '+'}{im}i)"


def gr_lin(m, a, n, b):
    return (m * a[0] + n * b[0], m * a[1] + n * b[1])


# ---- random pieces ----


class Draw:
    """Seeded random pieces for one round."""

    def __init__(self, workload: str, seed: int, round_index: int):
        self.rng = random.Random(f"{workload}:{seed}:{round_index}")

    def rat(self, lo=-9, hi=9, dens=(1, 2, 3, 4, 5, 7)) -> Fraction:
        while True:
            n = self.rng.randint(lo, hi)
            if n:
                return Fraction(n, self.rng.choice(dens))

    def proper_rat(self) -> Fraction:
        """A non-integral rational."""
        while True:
            x = self.rat(dens=(2, 3, 4, 5, 7))
            if x.denominator != 1:
                return x

    def gr(self, lo=-9, hi=9) -> "tuple[Fraction, Fraction]":
        return (self.rat(lo, hi), self.rat(lo, hi))

    def int_nonzero(self, lo=1, hi=5) -> int:
        return self.rng.randint(lo, hi) * self.rng.choice((-1, 1))

    def unimodular(self) -> "tuple[tuple[int, int], tuple[int, int]]":
        """A matrix in GL(2, Z) with entries of absolute value at most 2."""
        while True:
            a, b, c, d = (self.rng.randint(-2, 2) for _ in range(4))
            if a * d - b * c in (1, -1):
                return ((a, b), (c, d))

    def short_dec(self, lo=0.5, hi=3.0) -> float:
        """A decimal with three digits, nonzero, random sign."""
        x = round(self.rng.uniform(lo, hi), 3)
        return x * self.rng.choice((-1, 1))

    def dec_c(self) -> complex:
        return complex(self.short_dec(), self.short_dec())


# ---- constructions shared by decide and verify ----


TPI = complex(0.0, 2.0 * math.pi)


def rational_marked_torus(x: Fraction, y: Fraction, nu) -> str:
    """``torus:mu,nu`` whose marking coordinates of 2*pi*i are (x, y).

    mu = (2*pi*i - y*nu)/x; nu must have nonzero real part, or mu and nu
    would be real multiples of each other.
    """
    mu = f"(2pi*i-{q(y)}*{gauss(*nu)})/{q(x)}"
    return f"torus:{mu},{gauss(*nu)}"


def draw_nu(d: Draw):
    while True:
        nu = d.gr(-6, 6)
        if nu[0] and nu[1]:
            return nu


def torus_rational_pair(d: Draw, conjugate: bool):
    """Exact tori with rational markings; conjugate ones share a planted M."""
    x, y = d.proper_rat(), d.rat(dens=(2, 3, 5))
    order1 = math.lcm(x.denominator, y.denominator)
    if conjugate:
        while True:
            M = d.unimodular()
            k1, k2 = d.rng.randint(-2, 2), d.rng.randint(-2, 2)
            p = x * M[0][0] + y * M[1][0] - k1
            qq = x * M[0][1] + y * M[1][1] - k2
            if p and qq:
                break
    else:
        while True:
            p, qq = d.proper_rat(), d.rat(dens=(2, 3, 5))
            if math.lcm(p.denominator, qq.denominator) != order1:
                break
    s1 = rational_marked_torus(x, y, draw_nu(d))
    s2 = rational_marked_torus(p, qq, draw_nu(d))
    return s1, s2


def cylinder_offset_pair(d: Draw, offset, sign: int = 1, with_pi=False):
    """Cylinders with rho2 = sign*rho1 + offset, rho = 2*pi*i/mu."""
    if with_pi:
        mu1 = f"({q(d.rat(1, 9))}pi+{gauss(0, d.rat(1, 9))})"
    else:
        while True:
            g = d.gr()
            if g[0] and g[1]:
                break
        mu1 = gauss(*g)
    rho1 = f"2pi*i/{mu1}"
    if sign == 1:
        mu2 = f"2pi*i/({rho1}+{q(offset)})"
    else:
        mu2 = f"2pi*i/({q(offset)}-{rho1})"
    return f"cylinder:{mu1}", f"cylinder:{mu2}"


def torus_scalar_pair_exact(d: Draw):
    """Gamma2 = alpha*Gamma1 with alpha*2pi*i - 2pi*i in Gamma2.

    alpha = 2*pi*i/(2*pi*i - gamma) for a lattice point gamma of Gamma1
    satisfies it; Gamma2 gets a unimodular change of basis on top.
    """
    while True:
        g1, g2 = d.gr(-5, 5), d.gr(-5, 5)
        if g1[0] * g2[1] - g1[1] * g2[0]:
            break
    while True:
        m, n = d.rng.randint(-2, 2), d.rng.randint(-2, 2)
        if m or n:
            break
    gamma = gr_lin(m, g1, n, g2)
    (a, b), (c, e) = d.unimodular()
    h1, h2 = gr_lin(a, g1, b, g2), gr_lin(c, g1, e, g2)
    alpha = f"2pi*i/(2pi*i-{gauss(*gamma)})"
    s1 = f"torus:{gauss(*g1)},{gauss(*g2)}"
    s2 = f"torus:{alpha}*{gauss(*h1)},{alpha}*{gauss(*h2)}"
    return s1, s2


def _coords(mu: complex, nu: complex, z: complex) -> "tuple[float, float]":
    det = mu.real * nu.imag - nu.real * mu.imag
    return ((z.real * nu.imag - nu.real * z.imag) / det,
            (mu.real * z.imag - z.real * mu.imag) / det)


def _independent(mu: complex, nu: complex) -> bool:
    return abs((mu.conjugate() * nu).imag) > 0.2 * abs(mu) * abs(nu)


def torus_scalar_pair_approx(d: Draw):
    while True:
        m1, n1 = d.dec_c(), d.dec_c()
        if _independent(m1, n1):
            break
    m, n = d.rng.choice(((1, 0), (0, 1), (1, 1), (1, -1)))
    alpha = TPI / (TPI - (m * m1 + n * n1))
    (a, b), (c, e) = d.unimodular()
    mu2, nu2 = alpha * (a * m1 + b * n1), alpha * (c * m1 + e * n1)
    s1 = f"torus:{dec_complex(m1, 3)},{dec_complex(n1, 3)}"
    s2 = f"torus:{dec_complex(mu2)},{dec_complex(nu2)}"
    return s1, s2


def torus_real_linear_pair_approx(d: Draw):
    """Approximate tori whose markings differ by a planted unimodular M."""
    while True:
        m1, n1 = d.dec_c(), d.dec_c()
        if _independent(m1, n1):
            break
    x, y = _coords(m1, n1, TPI)
    while True:
        M = d.unimodular()
        k1, k2 = d.rng.randint(-1, 1), d.rng.randint(-1, 1)
        p = x * M[0][0] + y * M[1][0] - k1
        qq = x * M[0][1] + y * M[1][1] - k2
        nu2 = d.dec_c()
        if abs(p) < 0.3:
            continue
        mu2 = (TPI - qq * nu2) / p
        if _independent(mu2, nu2):
            break
    s1 = f"torus:{dec_complex(m1, 3)},{dec_complex(n1, 3)}"
    s2 = f"torus:{dec_complex(mu2)},{dec_complex(nu2)}"
    return s1, s2


def cylinder_pair_approx(d: Draw, k: int):
    """Approximate cylinders with rho2 - rho1 = k, rho = 2*pi*i/mu."""
    mu1 = d.dec_c()
    mu2 = TPI / (TPI / mu1 + k)
    return f"cylinder:{dec_complex(mu1, 3)}", f"cylinder:{dec_complex(mu2)}"


# ---- workloads ----


class Generator:
    """Yields the rounds of one workload in order, keeping literals unique."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.used = set(_surfaces(WARMUP[workload]))
        self.round_index = 0

    def next_round(self) -> "list[Op]":
        r = self.round_index
        self.round_index += 1
        d = Draw(self.workload, self.seed, r)
        build = {"decide": _decide_round, "verify": _verify_round,
                 "trajectory": _trajectory_round}[self.workload]
        return build(d, r, self._fresh)

    def _fresh(self, make, fixed=False) -> "list[str]":
        """Call make() for an argv until its surfaces are unused; claim them."""
        while True:
            argv = make()
            lits = _surfaces(argv)
            if not any(s in self.used for s in lits):
                self.used.update(s for s in lits if s != "plane")
                return argv
            if fixed:
                raise ValueError(f"fixed literal reused: {lits!r}")


def _surfaces(argv) -> "list[str]":
    return [a for a in argv if a == "plane" or a.startswith(("cylinder:", "torus:"))]


def _conj(mode, s1, s2, extra=()):
    return ["conjugacy", s1, s2, "--mode", mode, *extra]


def _decide_round(d: Draw, r: int, fresh) -> "list[Op]":
    ops = []

    def add(kind, make, fixed=False):
        expect = "not_conjugate" if kind.endswith("_not") or kind.startswith("F") \
            else "conjugate"
        ops.append(Op(kind, fresh(make, fixed), {"expect": expect}))

    def cyl(mode, offset_fn, sign=1, with_pi=False):
        def make():
            s1, s2 = cylinder_offset_pair(d, offset_fn(), sign, with_pi)
            return _conj(mode, s1, s2)
        return make

    def imag_cyl():
        while True:
            dens = tuple(range(1, 14))
            a, b = d.rat(1, 99, dens), d.rat(1, 99, dens)
            if a != b:
                break
        return _conj("topological", f"cylinder:{q(a)}i", f"cylinder:{q(b)}i")

    def torus_rat(conjugate):
        return lambda: _conj("topological", *torus_rational_pair(d, conjugate))

    def torus_holo():
        return _conj("holomorphic", *torus_scalar_pair_exact(d))

    def torus_approx():
        s1, s2 = torus_real_linear_pair_approx(d)
        return _conj("topological", s1, s2, ("--bound", str(APPROX_BOUND)))

    def closed(rational):
        def make():
            g1 = draw_nu(d)
            if rational:
                while True:
                    g2 = draw_nu(d)
                    if g1[0] * g2[1] != g1[1] * g2[0]:
                        break
                nu = gauss(*g2)
            else:
                nu = f"({q(d.rat())}+{q(d.rat(1, 9))}pi*i)"
            return ["closed-geodesics", f"torus:{gauss(*g1)},{nu}"]
        return make

    integer = lambda: d.int_nonzero()  # noqa: E731
    add("cylinder_holomorphic_conjugate", cyl("holomorphic", integer))
    add("cylinder_holomorphic_conjugate", cyl("holomorphic", integer, with_pi=True))
    add("cylinder_holomorphic_conjugate_inverse", cyl("holomorphic", integer, sign=-1))
    add("cylinder_holomorphic_not", cyl("holomorphic", d.proper_rat))
    add("cylinder_holomorphic_not", cyl("holomorphic", d.proper_rat, with_pi=True))
    add("cylinder_topological_real_linear", cyl("topological", d.proper_rat))
    add("cylinder_topological_real_linear", cyl("topological", d.proper_rat, with_pi=True))
    add("cylinder_topological_conjugate", cyl("topological", integer, with_pi=True))
    add("cylinder_topological_imaginary_not", imag_cyl)
    add("torus_rational_conjugate", torus_rat(True))
    add("torus_rational_conjugate", torus_rat(True))
    add("torus_rational_not", torus_rat(False))
    add("torus_holomorphic_conjugate", torus_holo)
    add("torus_holomorphic_conjugate", torus_holo)
    add("torus_approx_search", torus_approx)
    add("torus_approx_search", torus_approx)
    add("closed_geodesics_yes", closed(True))
    add("closed_geodesics_no", closed(False))
    # F2: exact holomorphic torus negatives report used_tolerance: true.
    # F1: exact tori with irrational markings end unknown at every bound.
    # Literals depend on the round index only, never on the seed.
    add("F2_torus_holomorphic_not",
        lambda: _conj("holomorphic", f"torus:1,{4 * r + 4}i",
                      f"torus:1,{4 * r + 5}i"), fixed=True)
    add("F1_torus_irrational_topological",
        lambda: _conj("topological", f"torus:1,{4 * r + 2}i",
                      f"torus:1,{4 * r + 3}i", ("--bound", str(F1_BOUND))),
        fixed=True)
    return ops


def _verify_round(d: Draw, r: int, fresh) -> "list[Op]":
    ops = []

    def add(kind, samples, make):
        argv = fresh(make)
        seed = d.rng.randint(0, 10**6)
        argv += ["--samples", str(samples), "--seed", str(seed)]
        ops.append(Op(kind, argv, {"expect": "conjugate", "samples": samples, "seed": seed}))

    def v(mode, pair_fn):
        return lambda: ["verify", *pair_fn(), "--mode", mode]

    def cyl_exact(offset_fn, sign=1, with_pi=False):
        return lambda: cylinder_offset_pair(d, offset_fn(), sign, with_pi)

    def cyl_linear_approx():
        while True:
            m1, m2 = d.dec_c(), d.dec_c()
            # keep rho2 -/+ rho1 far from integers so the verdict is linear
            r1, r2 = TPI / m1, TPI / m2
            if all(abs(w - round(w.real)) > 0.05 for w in (r2 - r1, r2 + r1)):
                break
        return f"cylinder:{dec_complex(m1, 3)}", f"cylinder:{dec_complex(m2, 3)}"

    def torus_approx():
        s1, s2 = torus_real_linear_pair_approx(d)
        return s1, s2, "--bound", str(APPROX_BOUND)

    integer = lambda: d.int_nonzero()  # noqa: E731
    S, L = VERIFY_SMALL, VERIFY_LARGE
    add("identity", S, lambda: ["verify", "plane", "plane", "--mode",
                                d.rng.choice(("holomorphic", "topological"))])
    add("cylinder_scalar_exact", S, v("holomorphic", cyl_exact(integer)))
    add("cylinder_scalar_exact", L, v("holomorphic", cyl_exact(integer, -1, True)))
    add("cylinder_scalar_approx", L, v("holomorphic",
                                       lambda: cylinder_pair_approx(d, d.int_nonzero(1, 3))))
    add("cylinder_real_linear_exact", S, v("topological", cyl_exact(d.proper_rat)))
    add("cylinder_real_linear_approx", L, v("topological", cyl_linear_approx))
    add("torus_scalar_exact", S, v("holomorphic", lambda: torus_scalar_pair_exact(d)))
    add("torus_scalar_approx", L, v("holomorphic", lambda: torus_scalar_pair_approx(d)))
    add("torus_real_linear_exact", L,
        v("topological", lambda: torus_rational_pair(d, True)))
    add("torus_real_linear_approx", S, v("topological", torus_approx))
    return ops


def _trajectory_round(d: Draw, r: int, fresh) -> "list[Op]":
    ops = []

    def add(kind, make):
        ops.append(Op(kind, fresh(make)))

    def exact_surface(kind):
        if kind == "plane":
            return "plane"
        if kind == "cylinder":
            return f"cylinder:{gauss(*draw_nu(d))}"
        while True:
            g1, g2 = d.gr(-5, 5), d.gr(-5, 5)
            if g1[0] * g2[1] - g1[1] * g2[0]:
                return f"torus:{gauss(*g1)},{gauss(*g2)}"

    def approx_surface(kind):
        if kind == "plane":
            return "plane"
        if kind == "cylinder":
            return f"cylinder:{dec_complex(d.dec_c(), 3)}"
        while True:
            m, n = d.dec_c(), d.dec_c()
            if _independent(m, n):
                return f"torus:{dec_complex(m, 3)},{dec_complex(n, 3)}"

    def vector(exact, real):
        if exact:
            z = gauss(*d.gr(-6, 6))
            u = q(d.rat(-6, 6)) if real else gauss(*d.gr(-6, 6))
        else:
            z = dec_complex(d.dec_c(), 3)
            u = dec(d.short_dec(), 3) if real else dec_complex(d.dec_c(), 3)
        return ["--z", z, "--u", u]

    def window():
        t0 = -round(d.rng.uniform(0.5, 2.0), 2)
        t1 = round(d.rng.uniform(0.5, 2.0), 2)
        return ["--t0", repr(t0), "--t1", repr(t1)]

    def traj(surface, exact, real, n, fmt):
        def make():
            s = exact_surface(surface) if exact else approx_surface(surface)
            return ["trajectory", s, *vector(exact, real), *window(),
                    "--n", str(n), "--format", fmt]
        return make

    def flow_op(surface, exact, real, outside=False):
        def make():
            s = exact_surface(surface) if exact else approx_surface(surface)
            argv = ["flow", s, *vector(exact, real)]
            t = round(d.rng.uniform(0.1, 3.0), 3)
            if outside:
                # real direction u: the flow ends at -1/u, so t beyond it
                u = float(Fraction(argv[5].strip("()")))
                t = -(1.0 / u) * (1.0 + d.rng.uniform(0.5, 2.0))
            elif real:
                t = -t if argv[5].startswith("(-") else t
            return argv + ["--t", repr(t)]
        return make

    def interval_op(surface, exact, real):
        def make():
            s = exact_surface(surface) if exact else approx_surface(surface)
            return ["interval", s, *vector(exact, real)]
        return make

    add("trajectory_exact_plane_regular", traj("plane", True, False, 100, "json"))
    add("trajectory_exact_cylinder_real", traj("cylinder", True, True, 100, "json"))
    add("trajectory_exact_torus_real", traj("torus", True, True, 100, "csv"))
    add("trajectory_approx_torus_regular", traj("torus", False, False, 300, "json"))
    add("trajectory_approx_cylinder_real", traj("cylinder", False, True, 300, "csv"))
    add("trajectory_approx_plane_real", traj("plane", False, True, 300, "json"))
    add("flow_exact_plane_real", flow_op("plane", True, True))
    add("flow_exact_cylinder_regular", flow_op("cylinder", True, False))
    add("flow_approx_torus_regular", flow_op("torus", False, False))
    add("flow_exact_torus_outside", flow_op("torus", True, True, outside=True))
    add("flow_exact_torus_regular", flow_op("torus", True, False))
    add("interval_exact_torus_real", interval_op("torus", True, True))
    add("interval_exact_torus_regular", interval_op("torus", True, False))
    add("interval_exact_cylinder_real", interval_op("cylinder", True, True))
    add("interval_approx_cylinder_regular", interval_op("cylinder", False, False))
    add("interval_approx_plane_real", interval_op("plane", False, True))
    return ops
