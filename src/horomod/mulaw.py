"""Graded multiplication laws and their structure equations.

A law is a finite window of structure coefficients c[lam,mu,i] for a
multiplicity-free weight monoid: the product of the weight-lam and
weight-mu pieces decomposes over Hom channels indexed by i, the i=0
channel is fixed to 1, and each coefficient carries the grade
lam+mu-nu as a natural combination of simple roots.

For rank one everything is explicit: channels are transvectants of
binary forms, commutativity and associativity expand into a polynomial
system with integer coefficients, kept in polysys canonical form from
generation to output, the linearization at the all-zero point computes
the tangent space with its torus weights, and the laws of orbit
closures, honest numeric points to feed back in, are read off
transvectants of the powers of the orbit's covariant: exact arithmetic
on binary forms, with no functions on the group.

The tangent space has two routes.  channels.law_tangent builds only
the linear rows of the system, grade by grade, with integer
coefficients; law_equations here builds the full quadratic system, and
tangent_at_horospherical linearizes it, as the oracle for the first.
Both refuse a window past a cost estimate before building anything,
and both read the window, its unknowns and the channel coefficients
from the channels layer.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, perm, prod
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .errors import ResourceError, ValidationError
from . import linalg
from .linalg import MAX_DIGITS
from .channels import (
    ChannelTable,
    _associativity_windows,
    _bracketings,
    _commutativity_rows,
    _is_a1,
    _law_unknowns,
    _triple_top_vectors,
    monoid_window,
)
from .polysys import (
    Grade,
    Mono,
    PolySystem,
    canonical_poly,
    primitive_ints,
    render_poly,
)
from .rootdata import (
    RootDatum,
    RootMonoid,
    WeightMonoid,
    make_root_datum,
    make_root_monoid,
    make_weight_monoid,
    natural_root_coords,
)

Q = Fraction

Weight = Tuple[int, ...]
LawKey = Tuple[Weight, Weight, Weight, int]

MAX_ORBIT_TRUNCATION = 16
# A law value of a numerator or denominator this large is not printed.
_BIG = 10**MAX_DIGITS
# Cap on the cost estimate of channels._check_law_cost for the full
# system.  In-process, the largest window N*n admitted for n = 1..6
# takes 0.1-0.8 s.
_SYSTEM_COST_CAP = 1_000_000


# ------------------------------------------------------------ binary forms


class BinaryForm(NamedTuple):
    degree: int
    coeffs: Tuple[Q, ...]  # against x^(d-j) y^j


def make_binary_form(degree: int, coeffs: Sequence) -> BinaryForm:
    co = tuple(Q(c) for c in coeffs)
    if degree < 0 or len(co) != degree + 1:
        raise ValidationError("coefficient vector must have length degree+1")
    return BinaryForm(degree, co)


def transvectant(f: BinaryForm, g: BinaryForm, i: int) -> BinaryForm:
    """The i-th transvectant of f and g, of degree f.degree + g.degree
    - 2i; the 0-th is the product."""
    if i < 0 or i > min(f.degree, g.degree):
        raise ValidationError(f"transvectant index {i} out of range")
    d = f.degree + g.degree - 2 * i
    coeff = ChannelTable()
    out = [Q(0)] * (d + 1)
    for s, fc in enumerate(f.coeffs):
        if not fc:
            continue
        for t, gc in enumerate(g.coeffs):
            if not gc:
                continue
            m = s + t - i
            if 0 <= m <= d:
                out[m] += fc * gc * coeff[f.degree, s, g.degree, t, i]
    return BinaryForm(d, tuple(out))


# ------------------------------------------------------- law container


class MultiplicationLaw(NamedTuple):
    rd: RootDatum
    monoid: WeightMonoid
    truncation: int
    coeffs: Dict[LawKey, Q]


def coeff_grade(rd: RootDatum, lam: Weight, mu: Weight, nu: Weight) -> Grade:
    grade = natural_root_coords(rd, tuple(l + m - n for l, m, n in zip(lam, mu, nu)))
    if grade is None:
        raise ValidationError(
            f"grade of ({lam},{mu})->{nu} is not a natural root combination"
        )
    return grade


def make_law(
    rd: RootDatum,
    monoid: WeightMonoid,
    truncation: int,
    coeffs: Mapping[LawKey, object],
) -> MultiplicationLaw:
    if truncation < 0:
        raise ValidationError("truncation must be non-negative")
    window = set(monoid_window(monoid, truncation))
    table: Dict[LawKey, Q] = {}
    for (lam, mu, nu, ch), raw in coeffs.items():
        lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
        val = Q(raw)
        if not val:
            continue
        for w in (lam, mu, nu):
            if w not in window:
                raise ValidationError(f"weight {w} outside the monoid window")
        sumw = tuple(a + b for a, b in zip(lam, mu))
        if sumw not in window:
            raise ValidationError(
                f"pair ({lam},{mu}) exceeds the truncation window"
            )
        coeff_grade(rd, lam, mu, nu)  # raises if nu > lam+mu in root order
        if (nu == sumw) != (ch == 0):
            raise ValidationError("channel 0 must be exactly the top component")
        if ch == 0 and val != 1:
            raise ValidationError("top-channel coefficient must be 1")
        if _is_a1(rd):
            if ch < 0 or ch > min(lam[0], mu[0]) or nu[0] != lam[0] + mu[0] - 2 * ch:
                raise ValidationError(f"bad channel {ch} for ({lam},{mu})->{nu}")
        if (not any(lam) and nu != mu) or (not any(mu) and nu != lam):
            raise ValidationError("multiplication by the unit component must be trivial")
        table[(lam, mu, nu, ch)] = val
    return MultiplicationLaw(rd, monoid, truncation, table)


def horospherical_law(
    rd: RootDatum, monoid: WeightMonoid, truncation: int
) -> MultiplicationLaw:
    window = monoid_window(monoid, truncation)
    wset = set(window)
    coeffs: Dict[LawKey, Q] = {}
    for lam in window:
        for mu in window:
            sumw = tuple(a + b for a, b in zip(lam, mu))
            if sumw in wset:
                coeffs[(lam, mu, sumw, 0)] = Q(1)
    return MultiplicationLaw(rd, monoid, truncation, coeffs)


def contract(law: MultiplicationLaw, point: Sequence) -> MultiplicationLaw:
    """Scale each coefficient of grade g by prod point[k]**g[k].

    For a value a/b and base = p/q, the scaled value in lowest terms has
    a numerator of at least |p|**exp / b and a denominator of at least
    q**exp / |a|.  Once either bound, read off bit lengths, reaches
    10**MAX_DIGITS, law_to_json_dict could not print the result, so it is
    refused here, before the power is multiplied out.  In rank one this
    refuses only results past the limit; in higher rank the bound is
    taken one coordinate at a time, so coordinates that cancel across
    the product may be refused too."""
    pt = [Q(x) for x in point]
    if len(pt) != law.rd.rank:
        raise ValidationError("contraction point must have one value per simple root")
    out: Dict[LawKey, Q] = {}
    for key, val in law.coeffs.items():
        g = coeff_grade(law.rd, key[0], key[1], key[2])
        factor = Q(1)
        for base, exp in zip(pt, g):
            num_bits = exp * (abs(base.numerator).bit_length() - 1) - val.denominator.bit_length()
            den_bits = exp * (base.denominator.bit_length() - 1) - abs(val.numerator).bit_length()
            if max(num_bits, den_bits) >= _BIG.bit_length():
                raise _too_long("contracted coefficient", key)
            factor *= base ** exp
        if val * factor:
            out[key] = val * factor
    return MultiplicationLaw(law.rd, law.monoid, law.truncation, out)


def root_monoid_of_law(law: MultiplicationLaw) -> RootMonoid:
    gens = sorted(
        {
            coeff_grade(law.rd, lam, mu, nu)
            for (lam, mu, nu, ch) in law.coeffs
            if ch != 0
        }
    )
    return make_root_monoid(law.rd, gens)


def _too_long(what: str, key: LawKey) -> ResourceError:
    lam, mu, nu, ch = key
    return ResourceError(
        f"{what} lam={list(lam)} mu={list(mu)} nu={list(nu)} channel={ch} "
        f"has a numerator or denominator of more than {MAX_DIGITS} digits"
    )


def law_to_json_dict(law: MultiplicationLaw) -> dict:
    """The law as JSON; a value whose numerator or denominator has more
    than MAX_DIGITS digits, which str could not print, is refused."""
    for key, val in law.coeffs.items():
        if abs(val.numerator) >= _BIG or val.denominator >= _BIG:
            raise _too_long("coefficient", key)
    entries = [
        {
            "lam": list(lam),
            "mu": list(mu),
            "nu": list(nu),
            "channel": ch,
            "value": str(law.coeffs[(lam, mu, nu, ch)]),
        }
        for (lam, mu, nu, ch) in sorted(law.coeffs)
    ]
    return {
        "rd": {"label": law.rd.label, "cartan": [list(r) for r in law.rd.cartan]},
        "monoid": {"generators": [list(g) for g in law.monoid.generators]},
        "truncation": law.truncation,
        "coeffs": entries,
    }


def _json_int(field: str, x) -> int:
    """A law JSON integer; floats and booleans are refused, since a
    float is no exact value."""
    if type(x) is not int:
        raise ValidationError(f"law JSON {field} must be an integer, got {x!r}")
    return x


def _json_list(field: str, x) -> list:
    if type(x) is not list:
        raise ValidationError(f"law JSON {field} must be a list, got {type(x).__name__}")
    return x


def _json_ints(field: str, values) -> Tuple[int, ...]:
    return tuple(_json_int(f"{field} entry", x) for x in _json_list(field, values))


def _json_object(where: str, obj, required: Tuple[str, ...], optional: Tuple[str, ...]) -> dict:
    """obj, refused unless it is a law JSON object that has every
    required key and no key law_to_json_dict does not write."""
    if type(obj) is not dict:
        raise ValidationError(f"law JSON {where} must be an object, got {type(obj).__name__}")
    for key in obj:
        if key not in required + optional:
            raise ValidationError(f"unknown key {key!r} in law JSON {where}")
    for key in required:
        if key not in obj:
            raise ValidationError(f"law JSON {where} is missing {key!r}")
    return obj


def law_from_json_dict(data: dict) -> MultiplicationLaw:
    """Inverse of law_to_json_dict.  Integer fields must be JSON integers
    and each value a string or a JSON integer, so every number is exact.
    A missing key, a field of the wrong shape, and a key
    law_to_json_dict does not write, are refused by name.  The root
    datum is named by its type-A label; a cartan field, if present, must
    be the label's Cartan matrix."""
    _json_object("top level", data, ("rd", "monoid", "truncation", "coeffs"), ())
    rdinfo = _json_object("rd", data["rd"], ("label",), ("cartan",))
    mondata = _json_object("monoid", data["monoid"], ("generators",), ())
    rd = make_root_datum(rdinfo["label"])
    if "cartan" in rdinfo:
        cartan = _json_list("cartan", rdinfo["cartan"])
        if tuple(_json_ints("cartan", row) for row in cartan) != rd.cartan:
            raise ValidationError(f"law JSON cartan is not the Cartan matrix of {rd.label}")
    gens = _json_list("generators", mondata["generators"])
    monoid = make_weight_monoid(rd, [_json_ints("generator", g) for g in gens])
    coeffs: Dict[LawKey, Q] = {}
    for e in _json_list("coeffs", data["coeffs"]):
        _json_object("coefficient", e, ("lam", "mu", "nu", "channel", "value"), ())
        if type(e["value"]) not in (int, str):
            raise ValidationError(
                f"law JSON value must be a string or an integer, got {e['value']!r}"
            )
        key = (
            _json_ints("lam", e["lam"]),
            _json_ints("mu", e["mu"]),
            _json_ints("nu", e["nu"]),
            _json_int("channel", e["channel"]),
        )
        if key in coeffs:
            raise ValidationError(f"duplicate coefficient {key}")
        value = e["value"]
        coeffs[key] = linalg.read_rational(value) if type(value) is str else Q(value)
    return make_law(rd, monoid, _json_int("truncation", data["truncation"]), coeffs)


# --------------------------------------------- rank-one equation system


def law_equations(monoid: WeightMonoid, truncation: int) -> PolySystem:
    """Commutativity and associativity constraints on a rank-one law
    window, as an exact polynomial system in the non-top coefficients."""
    return law_equations_with_kinds(monoid, truncation)[0]


def law_equations_with_kinds(
    monoid: WeightMonoid, truncation: int
) -> Tuple[PolySystem, Tuple[str, ...]]:
    """law_equations together with the origin of each equation, in
    matching order: "commutativity" or "associativity"."""
    ints, pos, index = _law_unknowns(monoid, truncation, _SYSTEM_COST_CAP)
    sset = set(ints)
    coeff = ChannelTable()
    names = [f"m[{a},{b},{i}]" for (a, b, i) in index]
    grades: List[Grade] = [(i,) for (_, _, i) in index]

    raw_equations: List[Tuple[Dict[Mono, int], Grade, str]] = [
        ({(u,): v for u, v in row.items()}, (i,), "commutativity")
        for row, i in _commutativity_rows(index)
    ]

    for a, b, c, nu, r in _associativity_windows(ints, pos, truncation):
        for eta in _triple_top_vectors(a, b, c, nu):
            poly = {}
            for (s, t, u), coef in eta.items():
                # The inner product x.y goes through channel i; its result
                # e meets z in channel j.  Channel 0 is the fixed top one;
                # any other is an unknown, since e and the outer result
                # nu lie in the window.
                for x, sx, y, sy, z, sz, sgn, first in _bracketings(a, b, c, s, t, u, coef):
                    for i in range(min(x, y) + 1):
                        j = r - i
                        e = x + y - 2 * i
                        if j < 0 or j > min(e, z) or e not in sset:
                            continue
                        k1 = coeff[x, sx, y, sy, i]
                        if not k1:
                            continue
                        if first:
                            p, sp, q, sq = e, sx + sy - i, z, sz
                        else:
                            p, sp, q, sq = z, sz, e, sx + sy - i
                        k2 = coeff[p, sp, q, sq, j]
                        if not k2:
                            continue
                        left = (index[(x, y, i)],) if i else ()
                        right = (index[(p, q, j)],) if j else ()
                        m = tuple(sorted(left + right))
                        poly[m] = poly.get(m, 0) + sgn * k1 * k2
            poly = {m: v for m, v in poly.items() if v}
            if poly:
                raw_equations.append((poly, (r,), "associativity"))

    seen = set()
    canon = []
    for poly, grade, kind in raw_equations:
        cp = canonical_poly(poly, names)
        if not cp or (cp, grade) in seen:
            continue
        seen.add((cp, grade))
        canon.append((cp, grade, kind))
    canon.sort(
        key=lambda eg: (
            eg[1],
            max(len(m) for m, _ in eg[0]),
            render_poly(eg[0], names),
        )
    )
    system = PolySystem(
        tuple(names),
        tuple(grades),
        tuple((cp, grade) for cp, grade, _ in canon),
    )
    return system, tuple(kind for _, _, kind in canon)


def tangent_at_horospherical(system: PolySystem) -> Tuple[int, Tuple[Grade, ...]]:
    """Kernel of the degree-one truncation at the all-zero point,
    reported blockwise per grade."""
    columns: Dict[Grade, Dict[int, int]] = {}  # grade -> {unknown: column}
    for u, g in enumerate(system.grades):
        cols = columns.setdefault(g, {})
        cols[u] = len(cols)
    spaces = {g: linalg.RowSpace(len(cols)) for g, cols in columns.items()}
    for cp, g in system.equations:
        if any(not m for m, _ in cp):
            raise ValidationError("system is not centered at the all-zero point")
        lin = {m[0]: c for m, c in cp if len(m) == 1}
        if lin:
            assert all(system.grades[u] == g for u in lin), "linear term off its equation grade"
            spaces[g].add({columns[g][u]: c for u, c in lin.items()})
    weights = tuple(g for g in sorted(spaces) for _ in range(spaces[g].ncols - spaces[g].dim))
    return len(weights), weights


def law_unknown_values(law: MultiplicationLaw) -> Dict[str, Q]:
    if not _is_a1(law.rd):
        raise ValidationError("unknown naming is defined for rank one")
    out: Dict[str, Q] = {}
    for (lam, mu, nu, ch), val in law.coeffs.items():
        if ch == 0:
            continue
        out[f"m[{lam[0]},{mu[0]},{ch}]"] = val
    return out


def system_residuals(system: PolySystem, values: Mapping[str, Q]) -> Tuple[Q, ...]:
    """Value of each equation at the given coefficient assignment;
    unnamed unknowns count as zero."""
    point = [Q(values.get(name, 0)) for name in system.unknowns]
    return tuple(
        sum((c * prod(point[u] for u in m) for m, c in cp), Q(0))
        for cp, _ in system.equations
    )


# ----------------------------------------------------- orbit laws (A1)


def _single_generator(monoid: WeightMonoid) -> int:
    gens = [g for g in monoid.generators if any(g)]
    if len(gens) != 1:
        raise ValidationError(
            "orbit laws are implemented for single-generator weight monoids"
        )
    return gens[0][0]


def _hw_covariant(forms: Sequence[BinaryForm], nbar: int) -> BinaryForm:
    """Z, the one nonzero summand of degree nbar, scaled to primitive
    integers whose last nonzero entry is positive.

    A nonzero summand of degree n pulls the coordinates of V(n) back to
    a copy of V(n) among the functions on SL2, and that copy holds a
    function of weight nbar when n >= nbar and n = nbar (mod 2).  The
    raising operator kills it for n = nbar and is injective on it
    otherwise, so the singular combinations of these functions are the
    degree-nbar summands plus, in each larger degree, one per linear
    relation among the summands of that degree; a combination of the
    latter is the pullback of zero, and vanishes."""
    by_degree: Dict[int, List[Tuple[Q, ...]]] = {}
    for f in forms:
        if any(f.coeffs) and f.degree >= nbar and (f.degree - nbar) % 2 == 0:
            by_degree.setdefault(f.degree, []).append(f.coeffs)
    if not by_degree:
        raise ValidationError("no coordinate function of the generator weight")
    tops = by_degree.pop(nbar, [])
    singular = len(tops) + sum(
        len(vs) - linalg.RowSpace(n + 1, vs).dim for n, vs in by_degree.items()
    )
    if not singular:
        raise ValidationError("no singular covariant of the generator weight")
    if singular > 1:
        raise ValidationError(
            "degree-one covariant of the generator weight is not unique; "
            "the orbit closure is not multiplicity-free in this window"
        )
    if not tops:
        raise ValidationError("singular covariant vanished after normalization")
    v = tops[0]
    # primitive_ints makes the first entry positive: read v from its end.
    last = max(j for j, c in enumerate(v) if c)
    return make_binary_form(nbar, primitive_ints(v[last::-1])[::-1] + [0] * (nbar - last))


def orbit_law(
    forms: Sequence[BinaryForm],
    monoid: WeightMonoid,
    truncation: int,
) -> MultiplicationLaw:
    """Numeric law of the orbit closure of the given vector, read off
    transvectants of the powers P_a = Z^(a/nbar) of its covariant.

    The weight-a piece of the coordinate ring is the copy of V(a) that
    P_a spans in the functions on SL2, and a product of functions is the
    product of the forms they come from.  So the channel-i part of the
    (a, b) product is transvectant(P_a, P_b, i), which must be k * P_c
    for c = a+b-2i in the window and zero off it.  The law reads each
    piece in the lowering basis of its functions, L^s(top)/perm(a, s);
    through the invariant pairing of binary forms that basis meets the
    monomial basis of the channel coefficients, and the coefficient is
    k / (i! perm(a,i) perm(b,i) perm(a+b-i+1,i)), whatever the form.
    The tests keep the route through functions on SL2 as the oracle."""
    if not _is_a1(monoid.rd):
        raise ValidationError("orbit laws are implemented for rank one")
    if truncation > MAX_ORBIT_TRUNCATION:
        raise ValidationError(
            f"orbit-law truncation capped at {MAX_ORBIT_TRUNCATION}"
        )
    forms = list(forms)
    if not forms or all(not any(f.coeffs) for f in forms):
        raise ValidationError("zero vector has no orbit law")
    nbar = _single_generator(monoid)
    ints = [w[0] for w in monoid_window(monoid, truncation)]

    z = _hw_covariant(forms, nbar)
    powers = {0: make_binary_form(0, [1])}
    for a in ints[1:]:
        powers[a] = transvectant(powers[a - nbar], z, 0)

    coeffs: Dict[LawKey, Q] = {}
    for a in ints:
        for b in ints:
            if a + b > truncation:
                break
            coeffs[((a,), (b,), (a + b,), 0)] = Q(1)
            for i in range(1, min(a, b) + 1):
                c = a + b - 2 * i
                k = _multiple(transvectant(powers[a], powers[b], i), powers.get(c))
                if k is None:
                    raise ValidationError(
                        f"product of the weight-{a} and weight-{b} pieces does not "
                        "decompose inside the declared monoid window"
                    )
                if k:
                    scale = factorial(i) * perm(a, i) * perm(b, i) * perm(a + b - i + 1, i)
                    coeffs[((a,), (b,), (c,), i)] = k / scale
    return make_law(monoid.rd, monoid, truncation, coeffs)


def _multiple(t: BinaryForm, p: Optional[BinaryForm]) -> Optional[Q]:
    """k with t = k * p, taking a missing p as zero; None if there is none."""
    if p is None:
        return None if any(t.coeffs) else Q(0)
    j = next(j for j, c in enumerate(p.coeffs) if c)
    k = t.coeffs[j] / p.coeffs[j]
    return k if all(x == k * y for x, y in zip(t.coeffs, p.coeffs)) else None
