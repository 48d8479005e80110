"""Independent checks of every benchmark operation.

Nothing here calls affinelab.  Literals are parsed by a parser of this
module, from the grammar the README documents, and evaluated twice:

* in sympy's rational function field QQ_I(s), the model of the exact
  track, where s stands for 2*pi*i; integrality criteria are decided there;
* in mpmath at 50 digits, where witnesses and flow samples are measured.

``check(op, rc, out)`` returns ``(failed, fault, message)``.  ``fault``
names one of the two known faults of the decide workload when the failure
is that fault and nothing else; any other failure has ``fault = None``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from fractions import Fraction

import mpmath
from sympy import QQ_I, field

mp = mpmath.mp
mp.dps = 50

K, S = field("s", QQ_I)  # S = 2*pi*i
I_K = K(QQ_I(0, 1))
TPI_MP = mpmath.mpc(0, 2) * mp.pi
EPS = 1e-9  # the program's default tolerance

# ---- literals ----

_TOKEN = re.compile(r"(\d+/\d+|\d+\.\d+|\d+)?pi|(\d+/\d+)|(\d+\.\d+)|(\d+)|(i)|([-+*/()])")


def _tokens(text: str):
    out, pos = [], 0
    text = text.replace(" ", "")
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"bad literal {text!r}")
        if m.group(0).endswith("pi"):
            out.append(("pi", m.group(1) or "1"))
        elif m.group(2):
            out.append(("rat", m.group(2)))
        elif m.group(3):
            out.append(("dec", m.group(3)))
        elif m.group(4):
            out.append(("int", m.group(4)))
        elif m.group(5):
            out.append(("i", "i"))
        else:
            out.append(("op", m.group(6)))
        pos = m.end()
    return out


class Value:
    """A literal's value: the exact model (or None) and a 50-digit number."""

    __slots__ = ("model", "num")

    def __init__(self, model, num):
        self.model = model
        self.num = num

    def _bin(self, other, f):
        model = None
        if self.model is not None and other.model is not None:
            model = f(self.model, other.model)
        return Value(model, f(self.num, other.num))


def _number(kind, text) -> Value:
    if kind == "dec":
        return Value(None, mpmath.mpf(text))
    if kind == "pi":
        coef = _number("dec" if "." in text else ("rat" if "/" in text else "int"), text)
        pi = Value(S / (2 * I_K), mp.pi)
        return coef._bin(pi, lambda a, b: a * b)
    frac = Fraction(text)
    return Value(K(frac.numerator) / frac.denominator, mpmath.mpf(frac.numerator) / frac.denominator)


def parse_literal(text: str) -> Value:
    toks = _tokens(text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else (None, None)

    def take():
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def expr():
        v = term()
        while peek()[1] in ("+", "-"):
            op = take()[1]
            w = term()
            v = v._bin(w, (lambda a, b: a + b) if op == "+" else (lambda a, b: a - b))
        return v

    def term():
        v = factor()
        while peek()[1] in ("*", "/"):
            op = take()[1]
            w = factor()
            v = v._bin(w, (lambda a, b: a * b) if op == "*" else (lambda a, b: a / b))
        return v

    def factor():
        if peek()[1] == "-":
            take()
            v = factor()
            return Value(None if v.model is None else -v.model, -v.num)
        if peek()[1] == "+":
            take()
            return factor()
        return atom()

    def atom():
        kind, text_ = take()
        if text_ == "(":
            v = expr()
            if take()[1] != ")":
                raise ValueError("unbalanced")
            return v
        if kind == "i":
            return Value(I_K, mpmath.mpc(0, 1))
        v = _number(kind, text_)
        if kind != "pi" and peek()[0] == "i":
            take()
            v = v._bin(Value(I_K, mpmath.mpc(0, 1)), lambda a, b: a * b)
        return v

    v = expr()
    if pos != len(toks):
        raise ValueError(f"trailing input in {text!r}")
    return v


def parse_surface(text: str) -> "list[Value]":
    if text == "plane":
        return []
    kind, _, body = text.partition(":")
    return [parse_literal(part) for part in body.split(",")]


# ---- the exact model ----


def _poly_conj(p):
    ring = p.ring
    return ring({(k,): QQ_I(c.x, -c.y) * (-1 if k % 2 else 1) for (k,), c in p.terms()})


def conj(e):
    """Complex conjugate: conjugate coefficients, and s -> -s."""
    return K(_poly_conj(e.numer)) / K(_poly_conj(e.denom))


def re_part(e):
    return (e + conj(e)) / 2


def im_part(e):
    return (e - conj(e)) / (2 * I_K)


def constant(e):
    """The Gaussian rational value of e as (re, im) Fractions, or None."""
    if e.numer.degree() > 0 or e.denom.degree() > 0:
        return None
    if not e.numer:
        return (Fraction(0), Fraction(0))
    v = e.numer.LC / e.denom.LC
    return (Fraction(int(v.x.numerator), int(v.x.denominator)),
            Fraction(int(v.y.numerator), int(v.y.denominator)))


def is_integer(e) -> bool:
    c = constant(e)
    return c is not None and c[1] == 0 and c[0].denominator == 1


def rational(e) -> "Fraction | None":
    c = constant(e)
    return c[0] if c is not None and c[1] == 0 else None


def markings_model(mu, nu):
    """Real (x, y) with 2*pi*i = x*mu + y*nu, in the model."""
    x = im_part(conj(nu) * S) / im_part(conj(nu) * mu)
    y = im_part(conj(mu) * S) / im_part(conj(mu) * nu)
    return x, y


# ---- 50-digit numerics ----


def cnum(d) -> "mpmath.mpc":
    return mpmath.mpc(d["re"], d["im"])


def residual(z, gens) -> float:
    """Distance from z to the lattice point its rounded coordinates name."""
    if not gens:
        return float(abs(z))
    if len(gens) == 1:
        mu = gens[0]
        m = mpmath.nint(mpmath.re(z * mpmath.conj(mu)) / abs(mu) ** 2)
        return float(abs(z - m * mu))
    a, b = coords(z, gens[0], gens[1])
    return float(abs(z - mpmath.nint(a) * gens[0] - mpmath.nint(b) * gens[1]))


def coords(z, mu, nu):
    det = mu.real * nu.imag - nu.real * mu.imag
    return ((z.real * nu.imag - nu.real * z.imag) / det,
            (mu.real * z.imag - z.real * mu.imag) / det)


def int_distance(x) -> float:
    return float(abs(x - mpmath.nint(x)))


def shape(mu, nu):
    """Gauss-reduced tau = nu/mu, up to tau -> -conj(tau)."""
    for _ in range(200):
        if abs(nu) < abs(mu):
            mu, nu = nu, mu
        m = mpmath.nint(mpmath.re(nu / mu))
        if m == 0:
            break
        nu = nu - m * mu
    tau = nu / mu
    return (abs(tau.real), abs(tau.imag))


# ---- checks ----


class Fail(Exception):
    def __init__(self, message, fault=None):
        super().__init__(message)
        self.fault = fault


def need(cond, message):
    if not cond:
        raise Fail(message)


def close(a, b, rel=1e-12, absol=1e-12) -> bool:
    return abs(a - b) <= absol + rel * abs(b)


def check(op, rc: int, out: str):
    """(failed, fault, message) for one operation's exit code and stdout."""
    try:
        {"conjugacy": _check_conjugacy, "closed-geodesics": _check_closed,
         "verify": _check_verify, "trajectory": _check_trajectory,
         "flow": _check_flow, "interval": _check_interval}[op.argv[0]](op, rc, out)
    except Fail as exc:
        return True, exc.fault, str(exc)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return True, None, f"unreadable output: {exc!r}"
    return False, None, ""


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _pair(op):
    s1, s2 = op.argv[1], op.argv[2]
    g1, g2 = parse_surface(s1), parse_surface(s2)
    exact = all(v.model is not None for v in g1 + g2)
    return s1.partition(":")[0], g1, g2, exact


def expected_verdict(op, kind, g1, g2, mode):
    """(status, witness types allowed, extra) decided in the model.

    Tori that are neither built around a witness nor of a decidable shape
    take their verdict from their construction, recorded in the op kind.
    """
    planted = op.spec["expect"]
    if kind == "plane":
        return "conjugate", ("identity",), None
    if kind == "cylinder" and g1[0].model is None:
        signs = [sg for sg in (1, -1) if int_distance(
            TPI_MP / g2[0].num - TPI_MP / g1[0].num * sg) <= EPS]
        if signs:
            return planted, ("cylinder_scalar",), signs
        return planted, ("cylinder_real_linear",), None
    if kind == "cylinder":
        mu1, mu2 = g1[0].model, g2[0].model
        signs = [sg for sg in (1, -1) if is_integer(S / mu2 - S / mu1 * sg)]
        if signs:
            verdict = "conjugate", ("cylinder_scalar",), signs
        elif mode == "topological" and re_part(mu1) != 0 and re_part(mu2) != 0:
            verdict = "conjugate", ("cylinder_real_linear",), None
        elif mode == "topological":
            verdict = "not_conjugate", (), "purely-imaginary-period-mismatch"
        else:
            verdict = "not_conjugate", (), "no-integer-marking-relation"
        need(verdict[0] == planted, "construction and integer criterion disagree")
        return verdict
    if kind == "torus" and op.kind.startswith("torus_rational"):
        orders = []
        for g in (g1, g2):
            x, y = (rational(c) for c in markings_model(g[0].model, g[1].model))
            need(x is not None and y is not None, "rational markings expected")
            orders.append(math.lcm(x.denominator, y.denominator))
        status = "conjugate" if orders[0] == orders[1] else "not_conjugate"
        need(status == planted, "construction and order criterion disagree")
        return status, ("torus_real_linear", "torus_scalar"), "marking-orders-differ"
    if op.kind.startswith("F1"):
        cs = []
        for g in (g1, g2):
            x, y = markings_model(g[0].model, g[1].model)
            need(x == 0 and rational(y / (S / (2 * I_K))) is not None,
                 "F1 markings should be (0, c*pi)")
            cs.append(rational(y / (S / (2 * I_K))))
        # c*pi with c rational is irrational, which forces M = diag(+-1, +-1)
        status = "conjugate" if abs(cs[0]) == abs(cs[1]) else "not_conjugate"
        need(status == planted, "construction and marking criterion disagree")
        return status, ("torus_real_linear",), None
    if op.kind.startswith("F2"):
        sh1 = shape(g1[0].num, g1[1].num)
        sh2 = shape(g2[0].num, g2[1].num)
        need(planted == "not_conjugate" and abs(sh1[0] - sh2[0]) + abs(sh1[1] - sh2[1]) > 1e-6,
             "F2 lattices should not be similar")
        return "not_conjugate", (), None
    if kind == "torus":
        return planted, ("torus_scalar", "torus_real_linear") \
            if mode == "topological" else ("torus_scalar",), None
    raise Fail(f"no oracle for {op.kind}")


def check_witness(w, kind, g1, g2, exact, signs):
    tol = 1e-30 if exact else 1e-8
    t = w["type"]
    if t == "identity":
        need(kind == "plane", "identity witness on non-planes")
    elif t == "cylinder_scalar":
        need(w["sign"] in (signs or ()), f"sign {w['sign']} fails the integer criterion")
        mu1, mu2 = g1[0].num, g2[0].num
        ratio = w["sign"] * mu2 / mu1
        need(close(cnum(w["ratio"]), ratio), "ratio is not sign*mu2/mu1")
        need(residual(ratio * TPI_MP - TPI_MP, [mu2]) <= tol * max(1, abs(mu2)),
             "alpha*2pi*i - 2pi*i not in Gamma2")
    elif t == "cylinder_real_linear":
        need(close(cnum(w["mu1"]), g1[0].num) and close(cnum(w["mu2"]), g2[0].num),
             "real-linear witness names other periods")
        need(abs(g1[0].num.real) > EPS and abs(g2[0].num.real) > EPS,
             "real-linear witness needs Re(mu) != 0")
    elif t == "torus_scalar":
        alpha = cnum(w["alpha"])
        L1 = [g.num for g in g1]
        L2 = [g.num for g in g2]
        scale = max(abs(v) for v in L1 + L2)
        for z in (alpha * L1[0], alpha * L1[1], alpha * TPI_MP - TPI_MP):
            need(residual(z, L2) <= 1e-9 * scale * max(1, abs(alpha)), "alpha*Gamma1 != Gamma2")
        for z in (L2[0] / alpha, L2[1] / alpha):
            need(residual(z, L1) <= 1e-9 * scale / min(1, abs(alpha)), "Gamma2/alpha != Gamma1")
    elif t == "torus_real_linear":
        (a, b), (c, d) = w["matrix"]
        need(a * d - b * c in (1, -1), "matrix is not unimodular")
        x, y = coords(TPI_MP, g1[0].num, g1[1].num)
        p, q = coords(TPI_MP, g2[0].num, g2[1].num)
        need(int_distance(x * a + y * c - p) <= tol and int_distance(x * b + y * d - q) <= tol,
             "(x, y)*M - (p, q) not in Z^2")
    else:
        raise Fail(f"unknown witness type {t!r}")


def _check_verdict(op, v, kind, g1, g2, exact, mode):
    status, types, extra = expected_verdict(op, kind, g1, g2, mode)
    need(v["mode"] == mode, "mode echoed wrongly")
    if exact and v["status"] == "unknown":
        raise Fail("exact input ended unknown", "F1" if op.kind.startswith("F1") else None)
    need(v["status"] == status, f"status {v['status']}, expected {status}")
    if status == "conjugate":
        need(v["witness"] is not None and v["witness"]["type"] in types,
             f"witness {v['witness']} not of type {types}")
        check_witness(v["witness"], kind, g1, g2, exact, extra)
    else:
        need(v["witness"] is None, "witness on a negative verdict")
        if isinstance(extra, str):
            need(v["reason"] == extra, f"reason {v['reason']!r}, expected {extra!r}")
    if exact and v["used_tolerance"]:
        raise Fail("exact input reported used_tolerance: true",
                   "F2" if op.kind.startswith("F2") else None)


def _check_conjugacy(op, rc, out):
    kind, g1, g2, exact = _pair(op)
    v = json.loads(out)
    need(rc == (2 if v["status"] == "unknown" else 0), f"exit code {rc}")
    _check_verdict(op, v, kind, g1, g2, exact, _flag(op.argv, "--mode"))


def _check_verify(op, rc, out):
    kind, g1, g2, exact = _pair(op)
    payload = json.loads(out)
    _check_verdict(op, payload["verdict"], kind, g1, g2, exact, _flag(op.argv, "--mode"))
    need(payload["passed"] is True, "verification did not pass")
    need(rc == 0, f"exit code {rc}")
    rep = payload["report"]
    need(rep["samples"] == op.spec["samples"] and rep["seed"] == op.spec["seed"],
         "report does not echo samples and seed")
    need(rep["max_deviation"] <= 1e-8 and rep["branch_ok"] and rep["boundary_ok"],
         "report deviations exceed the pass tolerance")


def _check_closed(op, rc, out):
    gens = parse_surface(op.argv[1])
    mu, nu = gens[0].model, gens[1].model
    w1, w2 = im_part(mu), im_part(nu)
    has = w1 == 0 or w2 == 0 or rational(w2 / w1) is not None
    need(has == (op.kind == "closed_geodesics_yes"), "construction and criterion disagree")
    v = json.loads(out)
    need(rc == 0, f"exit code {rc}")
    need(v["has_closed_geodesics"] is has, f"has_closed_geodesics should be {has}")
    if has:
        tr = cnum(v["witness"]["translation"])
        scale = max(abs(g.num) for g in gens)
        need(tr.real > 0 and abs(tr.imag) <= 1e-12 * scale, "translation not real positive")
        need(residual(tr, [g.num for g in gens]) <= 1e-9 * scale, "translation not in Gamma")
        need(close(mpmath.mpf(v["witness"]["scale_factor"]), mpmath.exp(tr.real)),
             "scale factor is not e^translation")
    else:
        need(v["witness"] is None, "witness without closed geodesics")


# ---- flow, interval, trajectory ----


def _vector(op):
    gens = [g.num for g in parse_surface(op.argv[1])]
    z = parse_literal(_flag(op.argv, "--z"))
    u = parse_literal(_flag(op.argv, "--u"))
    return gens, z, u


def _endpoint(u: Value):
    """Sheet parameter -1/u for a real direction, in Fractions when exact."""
    if u.model is not None:
        c = constant(u.model)
        if c is None or c[1] != 0:
            return None
        return -1 / c[0]
    if u.num.imag != 0:
        return None
    return -1 / float(u.num.real)


def _interval(u: Value):
    end = _endpoint(u)
    if end is None:
        return {"kind": "full_line", "endpoint": None}, None
    return {"kind": "right_of" if end < 0 else "left_of", "endpoint": float(end)}, end


def _same_interval(got, want):
    need(got["kind"] == want["kind"], f"interval {got['kind']}, expected {want['kind']}")
    if want["endpoint"] is None:
        need(got["endpoint"] is None, "full line with an endpoint")
    else:
        need(close(got["endpoint"], want["endpoint"], 1e-15, 0), "endpoint is not -1/u")


def _sample_ok(gens, z, u, t, zo, uo):
    """Flow sample (zo, uo) at time t against the closed form, mod the group."""
    tm = mpmath.mpf(t)
    w = 1 + tm * u
    z_exp = z + mpmath.log(w)
    u_exp = u / w
    cond = 1 + abs(tm * u) / abs(w)
    need(abs(uo - u_exp) <= 1e-11 * cond * abs(u_exp), f"u at t={t} off the closed form")
    scale = 1 + abs(z) + sum(abs(g) for g in gens)
    need(residual(zo - z_exp, gens) <= 1e-11 * (scale + cond), f"z at t={t} off the closed form")


def _check_flow(op, rc, out):
    gens, z, u = _vector(op)
    t = float(_flag(op.argv, "--t"))
    v = json.loads(out)
    need(rc == 0, f"exit code {rc}")
    want, end = _interval(u)
    _same_interval(v["interval"], want)
    inside = end is None or (t > end if end < 0 else t < end)
    need(v["defined"] is inside, f"defined should be {inside}")
    need(inside == (op.kind != "flow_exact_torus_outside"), "construction disagrees")
    if inside:
        _sample_ok(gens, z.num, u.num, t, cnum(v["z"]), cnum(v["u"]))


def _check_interval(op, rc, out):
    gens, z, u = _vector(op)
    v = json.loads(out)
    need(rc == 0, f"exit code {rc}")
    want, end = _interval(u)
    _same_interval({"kind": v["kind"], "endpoint": v["endpoint"]}, want)
    d = v["direction"]
    if end is None:
        want_kind = "regular_plus" if u.num.imag > 0 else "regular_minus"
        need(d["kind"] == want_kind and d["tau"] is None, f"direction {d}")
    else:
        need(d["kind"] == "bifurcation" and close(d["tau"], float(end), 1e-15, 0),
             f"direction {d}")
    need(d["snapped"] is False, "nothing here is near the real axis")


def _check_trajectory(op, rc, out):
    gens, z, u = _vector(op)
    t0, t1 = float(_flag(op.argv, "--t0")), float(_flag(op.argv, "--t1"))
    n = int(_flag(op.argv, "--n"))
    need(rc == 0, f"exit code {rc}")
    if _flag(op.argv, "--format") == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        need(rows[0] == ["t", "re_z", "im_z", "re_u", "im_u"], "csv header")
        samples = [(float(r[0]), mpmath.mpc(r[1], r[2]), mpmath.mpc(r[3], r[4]))
                   for r in rows[1:]]
    else:
        samples = [(s["t"], cnum(s["z"]), cnum(s["u"])) for s in json.loads(out)]
    need(len(samples) == n, f"{len(samples)} samples, expected {n}")
    _, end = _interval(u)
    lo, hi = t0, t1
    if end is not None:
        if end < 0:
            lo = max(lo, float(end) + EPS)
        else:
            hi = min(hi, float(end) - EPS)
    for i, (t, zo, uo) in enumerate(samples):
        want_t = lo + (hi - lo) * i / (n - 1)
        need(abs(t - want_t) <= 1e-12 * (1 + abs(hi - lo)), f"sample {i} at t={t}, expected {want_t}")
        need(end is None or (t > end if end < 0 else t < end), f"t={t} outside the interval")
        _sample_ok(gens, z.num, u.num, t, zo, uo)
