"""Graded multiplication laws and their structure equations.

A law is a finite window of structure coefficients c[lam,mu,i] for a
multiplicity-free weight monoid: the product of the weight-lam and
weight-mu pieces decomposes over Hom channels indexed by i, the i=0
channel is fixed to 1, and each coefficient carries the grade
lam+mu-nu as a natural combination of simple roots.

For rank one everything is explicit: channels are transvectants of
binary forms, commutativity and associativity expand into a polynomial
system with integer coefficients, kept as the reduced row-echelon basis
of each grade's span in polysys canonical form, the linearization at
the all-zero point computes the tangent space with its torus weights,
and the laws of orbit closures, honest numeric points to feed back in,
are read off transvectants of the powers of the orbit's covariant:
exact arithmetic on binary forms, with no functions on the group.  A
form is its coefficient sequence; integer forms stay int, the covariant
and its powers are int whatever the form, and a Fraction appears only
where a value is not an integer: a coefficient of a form or a law.

The tangent space has two routes.  channels.law_tangent builds only
the linear rows of the system, grade by grade, with integer
coefficients; law_equations here builds the full quadratic system,
whose linearization in the tests is the oracle for the first.
Both refuse a window past a cost estimate before building anything,
and both read the window, its unknowns, the channel coefficients and
the associator on the s = 0 weight vectors of each window from the
channels layer; the singular vectors of the triple product are an
oracle in the tests only.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, perm
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .errors import BIG, MAX_DIGITS, ResourceError, ValidationError, clip
from . import linalg
from .channels import (
    ChannelTable,
    _associativity_windows,
    _channel_coeff,
    _commutativity_rows,
    _is_a1,
    _law_unknowns,
    _weight_vector_rows,
    monoid_window,
)
from .polysys import Grade, PolySystem, primitive_ints, reduced_equations
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
# Cap on the cost estimate of channels._check_law_cost for the full system.  The
# largest window admitted for n = 1..6, D = 15..41, takes 0.004-0.19 s in process.
_SYSTEM_COST_CAP = 1_000_000


# ------------------------------------------------------------ binary forms

# A binary form of degree d is its coefficient sequence against
# x^(d-j) y^j, j = 0..d, so d is its length less one.
Form = Sequence[Q]


def transvectants(f: Form, g: Form, top: int) -> List[Tuple[Q, ...]]:
    """The transvectants of f and g of index 0..top, the i-th of degree
    deg f + deg g - 2i; the 0-th is the product.  Each product of a
    coefficient of f with one of g is formed once, for every index, and
    integer forms give integer transvectants."""
    df, dg = len(f) - 1, len(g) - 1
    if top < 0 or top > min(df, dg):
        raise ValidationError(f"transvectant index {top} out of range")
    out = [[0] * (df + dg - 2 * i + 1) for i in range(top + 1)]
    for s, fc in enumerate(f):
        if not fc:
            continue
        for t, gc in enumerate(g):
            if not gc:
                continue
            p = fc * gc
            for i, row in enumerate(out):
                m = s + t - i
                if 0 <= m < len(row):
                    row[m] += p * _channel_coeff(df, s, dg, t, i)
    return [tuple(row) for row in out]


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
            if max(num_bits, den_bits) >= BIG.bit_length():
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
        if abs(val.numerator) >= BIG or val.denominator >= BIG:
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
        raise ValidationError(f"law JSON {field} must be an integer, got {clip(repr(x))}")
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
            raise ValidationError(f"unknown key {clip(repr(key))} in law JSON {where}")
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
                f"law JSON value must be a string or an integer, got {clip(repr(e['value']))}"
            )
        key = (
            _json_ints("lam", e["lam"]),
            _json_ints("mu", e["mu"]),
            _json_ints("nu", e["nu"]),
            _json_int("channel", e["channel"]),
        )
        if key in coeffs:
            raise ValidationError(f"duplicate coefficient {clip(str(key))}")
        value = e["value"]
        coeffs[key] = linalg.read_rational(value) if type(value) is str else Q(value)
    return make_law(rd, monoid, _json_int("truncation", data["truncation"]), coeffs)


# --------------------------------------------- rank-one equation system


def law_equations(monoid: WeightMonoid, truncation: int) -> PolySystem:
    """Commutativity and associativity constraints on a rank-one law
    window, as an exact polynomial system in the non-top coefficients:
    the associator of each window, every term, on the weight vectors of
    its triple product with s = 0, each grade as the reduced basis of
    its span (polysys.reduced_equations)."""
    ints, pos, index = _law_unknowns(monoid, truncation, _SYSTEM_COST_CAP)
    coeff = ChannelTable()
    names = tuple(f"m[{a},{b},{i}]" for (a, b, i) in index)
    grades = tuple((i,) for (_, _, i) in index)
    rows = [(row, (i,)) for row, i in _commutativity_rows(index)]
    for a, b, c, _, r in _associativity_windows(ints, pos, truncation):
        for row in _weight_vector_rows(index, coeff, a, b, c, r, range(r + 1)):
            rows.append((row, (r,)))
    return PolySystem(names, grades, reduced_equations(rows, names))


# ----------------------------------------------------- orbit laws (A1)


def _single_generator(monoid: WeightMonoid) -> int:
    gens = [g for g in monoid.generators if any(g)]
    if len(gens) != 1:
        raise ValidationError(
            "orbit laws are implemented for single-generator weight monoids"
        )
    return gens[0][0]


def _hw_covariant(forms: Sequence[Form], nbar: int) -> Tuple[int, ...]:
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
    by_degree: Dict[int, List[Form]] = {}
    for f in forms:
        d = len(f) - 1
        if any(f) and d >= nbar and (d - nbar) % 2 == 0:
            by_degree.setdefault(d, []).append(f)
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
    return tuple(primitive_ints(v[last::-1])[::-1] + [0] * (nbar - last))


def orbit_law(
    forms: Sequence[Form],
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
    if not forms or all(not any(f) for f in forms):
        raise ValidationError("zero vector has no orbit law")
    nbar = _single_generator(monoid)
    ints = [w[0] for w in monoid_window(monoid, truncation)]

    z = _hw_covariant(forms, nbar)
    # Z is a power of a linear form when nbar = 1 or its Hessian (Z, Z)_2
    # vanishes.  So is every P_a then, and two such powers have no
    # transvectant of index i >= 1: the law is the graded one, and no
    # power is multiplied out.
    graded = nbar == 1 or not any(transvectants(z, z, 2)[2])
    powers = {0: (1,)}
    for a in [] if graded else ints[1:]:
        powers[a] = transvectants(powers[a - nbar], z, 0)[0]

    coeffs: Dict[LawKey, Q] = {}
    for a in ints:
        for b in ints:
            if a + b > truncation:
                break
            coeffs[((a,), (b,), (a + b,), 0)] = Q(1)
            if graded:
                continue
            by_channel = transvectants(powers[a], powers[b], min(a, b))
            for i in range(1, min(a, b) + 1):
                c = a + b - 2 * i
                k = _multiple(by_channel[i], powers.get(c))
                if k is None:
                    raise ValidationError(
                        f"product of the weight-{a} and weight-{b} pieces does not "
                        "decompose inside the declared monoid window"
                    )
                if k:
                    scale = factorial(i) * perm(a, i) * perm(b, i) * perm(a + b - i + 1, i)
                    coeffs[((a,), (b,), (c,), i)] = k / scale
    return make_law(monoid.rd, monoid, truncation, coeffs)


def _multiple(t: Form, p: Optional[Form]) -> Optional[Q]:
    """k with t = k * p, taking a missing p as zero; None if there is none."""
    if p is None:
        return None if any(t) else 0
    j = next(j for j, c in enumerate(p) if c)
    return Q(t[j], p[j]) if all(x * p[j] == t[j] * y for x, y in zip(t, p)) else None
