"""Unit tests for the surface context, divisor/curve classes, and the
rank-3 pairing model."""

from __future__ import annotations

import io
import random
from fractions import Fraction

import pytest

from wallkit import walls
from wallkit.binforms import canonical_form, class_id
from wallkit.catalog import iter_catalog, seed_lattice
from wallkit.curves import BNParams, _square
from wallkit.model import (
    CurveClass,
    DivisorClass,
    DomainError,
    Ratio,
    SurfaceContext,
    _shown,
    divisor_divisibility,
    exceptional_vector,
    moduli_dim,
    moduli_vector,
    mukai_pairing,
    mukai_square,
    ratio_str,
    sheaf_vector,
    write_records,
)
from wallkit.subvarieties import bundle_locus, lagrangian_plane
from wallkit.walls import (
    box_radius,
    box_witnesses,
    enumerate_witnesses,
    saturated_span,
)


def _contexts():
    for epsilon in (0, 1):
        for k in range(2, 7):
            for p in range(2, 12):
                yield SurfaceContext(epsilon, p, k)


def test_context_validation():
    # epsilon is checked first, then k, then p, each with its own text.
    for args, text in (
            ((2, 1, 1), "epsilon must be 0 or 1 (got 2)"),
            ((0, 1, 1), "constraint violated: k >= 2 (got k=1)"),
            ((0, 1, 3), "constraint violated: p >= 2 (got p=1)"),
            ((0, 4, 1), "constraint violated: k >= 2 (got k=1)")):
        with pytest.raises(DomainError) as exc:
            SurfaceContext(*args)
        assert str(exc.value) == text
    ctx = SurfaceContext(0, 4, 3)
    assert ctx.l_square == 6 and ctx.ek_div == 4
    assert SurfaceContext(1, 4, 3).ek_div == 8
    assert ctx == SurfaceContext(epsilon=0, p=4, k=3)
    assert hash(ctx) == hash(SurfaceContext(0, 4, 3)) == hash((0, 4, 3))
    assert ctx != SurfaceContext(0, 4, 4)
    assert repr(ctx) == "SurfaceContext(epsilon=0, p=4, k=3)"
    with pytest.raises(AttributeError):
        ctx.p = 5


def test_pairing_is_symmetric_bilinear():
    rng = random.Random(314)
    for _ in range(300):
        p = rng.randint(2, 30)
        x = tuple(rng.randint(-9, 9) for _ in range(3))
        y = tuple(rng.randint(-9, 9) for _ in range(3))
        z = tuple(rng.randint(-9, 9) for _ in range(3))
        a = rng.randint(-4, 4)
        assert mukai_pairing(x, y, p) == mukai_pairing(y, x, p)
        xz = tuple(x[i] + a * z[i] for i in range(3))
        assert (mukai_pairing(xz, y, p)
                == mukai_pairing(x, y, p) + a * mukai_pairing(z, y, p))


def test_pairing_matches_gram_matrix():
    rng = random.Random(159)
    for ctx in _contexts():
        gram = [[0, 0, -1], [0, 2 * ctx.p - 2, 0], [-1, 0, 0]]
        for _ in range(3):
            x = [rng.randint(-5, 5) for _ in range(3)]
            y = [rng.randint(-5, 5) for _ in range(3)]
            via_gram = sum(x[i] * gram[i][j] * y[j]
                           for i in range(3) for j in range(3))
            assert via_gram == mukai_pairing(tuple(x), tuple(y), ctx.p)


def test_distinguished_vectors():
    for ctx in _contexts():
        v = moduli_vector(ctx)
        e = exceptional_vector(ctx)
        lvec = (0, 1, 0)
        assert mukai_square(v, ctx.p) == ctx.ek_div
        assert mukai_square(e, ctx.p) == -ctx.ek_div
        assert mukai_pairing(v, e, ctx.p) == 0
        assert mukai_pairing(v, lvec, ctx.p) == 0
        assert mukai_square(lvec, ctx.p) == ctx.l_square
        # (v + e)/2 and (v - e)/ek_div are both integral
        assert all((v[i] + e[i]) % 2 == 0 for i in range(3))
        assert all((v[i] - e[i]) % ctx.ek_div == 0 for i in range(3))


def test_embed_divisor_preserves_square_and_lands_in_v_perp():
    # a*L + b*e embeds as (b, a, b*h), h = k - 1 + 2*epsilon; when
    # q < 0 the image lies in the saturated span Z*w + Z*v.
    rng = random.Random(265)
    for ctx in _contexts():
        h = ctx.k - 1 + 2 * ctx.epsilon
        v = moduli_vector(ctx)
        for _ in range(3):
            a, b = rng.randint(-5, 5), rng.randint(-5, 5)
            d = DivisorClass(a, b)
            x = (b, a, b * h)
            assert mukai_square(x, ctx.p) == d.square(ctx)
            assert mukai_pairing(x, v, ctx.p) == 0
            if d.square(ctx) >= 0:
                continue
            w = saturated_span(d, ctx).w
            (qw, bwv), (_, qv) = [[mukai_pairing(y, z, ctx.p) for z in (w, v)]
                                  for y in (w, v)]
            bxw, bxv = mukai_pairing(x, w, ctx.p), mukai_pairing(x, v, ctx.p)
            det = qw * qv - bwv * bwv
            s, rs = divmod(bxw * qv - bxv * bwv, det)
            t, rt = divmod(qw * bxv - bwv * bxw, det)
            assert rs == rt == 0
            assert tuple(s * w[i] + t * v[i] for i in range(3)) == x
    with pytest.raises(DomainError):  # q(L) = 6 >= 0
        saturated_span(DivisorClass(1, 0), SurfaceContext(0, 4, 3))


def test_divisibility_examples():
    k3 = SurfaceContext(0, 4, 3)
    assert divisor_divisibility(DivisorClass(0, 1), k3) == 4
    assert divisor_divisibility(DivisorClass(2, -3), k3) == 2
    assert divisor_divisibility(DivisorClass(1, -1), k3) == 1
    kum = SurfaceContext(1, 4, 2)
    assert divisor_divisibility(DivisorClass(0, 1), kum) == 6
    assert divisor_divisibility(DivisorClass(3, -1), kum) == 3


def test_divisibility_homogeneity_and_bounds():
    for ctx in _contexts():
        for a in range(-4, 5):
            for b in range(-4, 5):
                if a == 0 and b == 0:
                    continue
                d = DivisorClass(a, b)
                div = divisor_divisibility(d, ctx)
                assert div >= 1
                assert a % div == 0  # div divides the pairing with L-dual
                for m in (2, 3):
                    scaled = DivisorClass(m * a, m * b)
                    assert divisor_divisibility(scaled, ctx) == m * div


def test_curve_square_matches_divisor_square():
    rng = random.Random(358)
    for ctx in _contexts():
        for _ in range(3):
            c = CurveClass(rng.randint(-5, 5), rng.randint(-9, 9))
            # The dual of c is l*L + (r/div(e))*e; div(e) times it is
            # integral, with div(e)^2 times its square.
            num, den = c.square(ctx)
            assert den == ctx.ek_div
            dual = DivisorClass(ctx.ek_div * c.l, c.r)
            assert num * ctx.ek_div == dual.square(ctx)


def test_sheaf_vector_examples():
    assert sheaf_vector(4, 0, 3, 0) == (4, (2, 1, 2))
    assert sheaf_vector(7, 0, 2, 1) == (3, (2, 1, 3))
    assert sheaf_vector(8, 1, 4, 0) == (6, (2, 1, 4))


def test_moduli_dim_examples():
    assert moduli_dim(4, 0, 3, 0) == 0
    assert moduli_dim(8, 1, 4, 0) == 0
    assert moduli_dim(2, 0, 2, 0) == 0
    assert moduli_dim(7, 0, 2, 1) == 2
    assert moduli_dim(2, 1, 2, 0) == 4
    with pytest.raises(DomainError):
        moduli_dim(3, 0, 2, 0)


def test_moduli_dim_equals_square_plus_two():
    for epsilon in (0, 1):
        for k in range(2, 8):
            for p in range(2, 25):
                for delta in range(0, p - 2 * epsilon + 1):
                    chi, vec = sheaf_vector(p, delta, k, epsilon)
                    expected = mukai_square(vec, p) + 2
                    if expected < 0:
                        with pytest.raises(DomainError):
                            moduli_dim(p, delta, k, epsilon)
                    else:
                        assert moduli_dim(p, delta, k, epsilon) == expected
                        assert expected % 2 == 0


def test_ratio_str_reduces_ints_ratios_and_squares_only():
    assert ratio_str(3) == "3/1" and ratio_str(-4) == "-4/1"
    assert ratio_str(0) == ratio_str(Ratio(0, 6)) == "0/1"
    assert ratio_str(Ratio(-6, 4)) == "-3/2" and ratio_str(Ratio(5, 1)) == "5/1"
    # Curve squares, over 2h = 6 (k = 4, epsilon = 0) and not reduced.
    assert ratio_str(_square(6, 0, 4, 0)) == "-7/2"
    assert ratio_str(_square(5, 2, 4, 0)) == "2/1"
    for not_rational in (0.5, 2.0, "1/2", None):
        with pytest.raises(TypeError):
            ratio_str(not_rational)


def test_ratio_is_the_unreduced_pair():
    # A Ratio is a tuple: equality compares the pairs, not the values, so
    # the tests compare values through Fraction.
    r = Ratio(-6, 4)
    assert (r.numerator, r.denominator) == tuple(r) == (-6, 4)
    assert repr(r) == "Ratio(numerator=-6, denominator=4)"
    assert r != Ratio(-3, 2) and Fraction(*r) == Fraction(*Ratio(-3, 2))


def test_write_records_writes_a_str_as_its_line():
    # A record is its JSON text: written as it is, plus a newline (not
    # JSON-encoded into a quoted string).
    out = io.StringIO()
    records = iter(['{"a": 1}', "not json"])
    assert write_records(records, out) == 2
    assert out.getvalue() == '{"a": 1}\nnot json\n'
    assert write_records(iter(()), out) == 0


def test_integral_divisor_class_holds_ints():
    ctx = SurfaceContext(0, 4, 3)
    d = DivisorClass(2, -3)
    assert repr(d) == "DivisorClass(l=2, e=-3)"
    assert d == DivisorClass(e=-3, l=2)
    assert hash(d) == hash((2, -3))
    assert d != DivisorClass(2, 3)
    with pytest.raises(AttributeError):
        d.l = 3
    assert type(d.square(ctx)) is int and d.square(ctx) == 6 * 4 - 9 * 4


@pytest.mark.parametrize("coefficient", [Fraction(4, 2), Fraction(-3, 2),
                                         2.0, 0.5, "2", None])
def test_divisor_class_rejects_non_integers(coefficient):
    # Integral or not, a Fraction is no coefficient: a rational class is
    # given as an integral multiple of it.
    for args in ((coefficient, 1), (1, coefficient)):
        with pytest.raises(DomainError):
            DivisorClass(*args)
        with pytest.raises(DomainError):
            DivisorClass._make(args)
    with pytest.raises(DomainError):
        DivisorClass(1, 2)._replace(e=coefficient)
    with pytest.raises(DomainError):
        DivisorClass(1, 2)._replace(l=coefficient)


def test_classes_are_named_tuples():
    # Equality and hash within a type are those of the tuple of fields; a
    # class also equals any tuple with the same entries, so a curve class
    # and a divisor class with equal coefficients compare equal.
    c = CurveClass(1, -5)
    assert c == CurveClass(l=1, r=-5) and c != CurveClass(1, 5)
    assert hash(c) == hash((1, -5)) and repr(c) == "CurveClass(l=1, r=-5)"
    assert c == DivisorClass(1, -5) == (1, -5)
    l, r = c
    assert (l, r) == (c[0], c[1]) == (c.l, c.r)


def test_replace_and_make_go_through_new():
    # namedtuple's own `_replace` and `_make` skip `__new__`, so they would
    # build an unvalidated context without its derived attributes.
    ctx = SurfaceContext(0, 9, 3)
    for bad in ({"epsilon": 5.5, "k": -1}, {"k": 1}, {"p": 1}):
        with pytest.raises(DomainError):
            ctx._replace(**bad)
    with pytest.raises(DomainError):
        SurfaceContext._make((2, 9, 3))
    for other in (ctx._replace(epsilon=1, k=5), SurfaceContext._make((1, 9, 5))):
        assert other == SurfaceContext(1, 9, 5)
        assert (other.l_square, other.ek_div) == (16, 12)
    assert ctx._replace() == ctx and ctx._replace().ek_div == 4
    # DivisorClass checks its coefficients in `__new__`.
    assert DivisorClass(1, 3)._replace(e=2) == DivisorClass._make((1, 2))
    with pytest.raises(DomainError):
        DivisorClass(1, 3)._replace(e=Fraction(4, 2))
    with pytest.raises(DomainError):
        DivisorClass._make((Fraction(6, 3), 1))


class _Loud:
    """An object whose text is never to be taken."""

    def __str__(self):
        raise AssertionError("str taken")

    __repr__ = __str__


def test_shown_prints_ints_sequences_and_type_names():
    # The one formatter of a caller's value in a DomainError message.
    assert _shown(-12) == "-12" and _shown(True) == "True"
    assert _shown(2 ** 64 - 1) == str(2 ** 64 - 1)
    assert _shown(-2 ** 64) == "a 65-bit value"
    # A tuple or list keeps the bytes `str` gives when its ints are short.
    for value in ((1, 0, 0), [2, 0], (7,), (), [], ((1, 2), [3])):
        assert _shown(value) == str(value)
    assert _shown([1, 2 ** 300]) == "[1, a 301-bit value]"
    # Past four items or two levels, by its type name and length.
    assert _shown((1, 2, 3, 4, 5)) == "tuple of length 5"
    assert _shown([[[], [1]], ()]) == "[[list of length 0, list of length 1], ()]"
    assert _shown(_Loud()) == "_Loud"
    assert _shown((1.5, "2", None, _Loud())) == "(float, str, NoneType, _Loud)"


_BIG = 10 ** 5000


def test_domain_errors_print_long_ints_by_bit_length():
    # Python prints no int of more than 4,300 digits; a message prints an
    # int past 64 bits by its bit length, a long or deep tuple or list by
    # its type name and length, and any other object but a tuple or list by
    # its type name, so each stays short.  An input with no len, or a k
    # that is no int, is a shape error, not a TypeError.
    big = 10 ** 3000
    itself = []
    itself.append(itself)
    calls = (
        (lambda: enumerate_witnesses([[2, 1], [1, -2]], (2 * _BIG, 2), 0),
         "-bit value"),
        (lambda: enumerate_witnesses([[big, 0], [0, big]], (0, 1), 0),
         "-bit value"),
        (lambda: box_witnesses([[big, 0], [0, big]], (0, 1), 0), "-bit value"),
        (lambda: walls._witness_walk(big, 0, big, 0), "-bit value"),
        (lambda: box_radius([[2, 1], [1, -2]], (1, 0, big)), "-bit value"),
        (lambda: saturated_span(DivisorClass(big, 1), SurfaceContext(0, 5, 3)),
         "-bit value"),
        (lambda: SurfaceContext(0, 5, -_BIG), "k >= 2 .*-bit value"),
        (lambda: SurfaceContext(0, -_BIG, 3), "p >= 2 .*-bit value"),
        (lambda: SurfaceContext(_BIG, 5, 3), "epsilon .*-bit value"),
        (lambda: seed_lattice(-_BIG, 0), "k >= 2 .*-bit value"),
        (lambda: seed_lattice(3, _BIG), "epsilon .*-bit value"),
        (lambda: BNParams(5, _BIG, 3, 0), "delta=a 16610-bit value"),
        (lambda: BNParams(5, -_BIG, 3, 0), "delta=a 16610-bit value"),
        (lambda: bundle_locus(5, _BIG, 3, 0), "delta=a 16610-bit value"),
        (lambda: lagrangian_plane(-_BIG, 0), "k >= 2 .*-bit value"),
        # Three ints of 200 bits, or two, in one message.
        (lambda: iter_catalog(2 ** 198, 0, 2 ** 200 - 1),
         "^empty p range: .* is a 199-bit value$"),
        (lambda: BNParams(2 ** 200 - 1, -(2 ** 200 - 1), 2, 0),
         "delta=a 200-bit value, p=a 200-bit value"),
        (lambda: DivisorClass(Fraction(_BIG), 1),
         r"^l must be an integer \(got Fraction\)$"),
        (lambda: enumerate_witnesses([[Fraction(_BIG), 0], [0, 1]], (0, 1), 0),
         r"^gram\[0\]\[0\] must be an integer \(got Fraction\)$"),
        (lambda: enumerate_witnesses([[2, 1], [1, -2]], 5, 0),
         "^distinguished vector must be a pair, got 5$"),
        (lambda: enumerate_witnesses([[2, 1], [1, -2]], list(range(10**5)), 0),
         "^distinguished vector must be a pair, got list of length 100000$"),
        (lambda: enumerate_witnesses([[2, 1], [1, -2]], itself, 0),
         r"^distinguished vector must be a pair, got \[\[list of length 1\]\]$"),
        (lambda: enumerate_witnesses(5, (0, 1), 0),
         "^gram must be a symmetric 2x2 matrix$"),
        (lambda: lagrangian_plane("3", 0),
         r"^k must be an integer \(got str\)$"),
        (lambda: canonical_form([[1, 1], [1, 1]]), "^Gram matrix is degenerate$"),
        (lambda: class_id({0, 1}), "^gram must be a symmetric 2x2 matrix$"),
    )
    for call, match in calls:
        with pytest.raises(DomainError, match=match) as info:
            call()
        assert len(str(info.value)) < 200
    # Short ints keep their digits.
    with pytest.raises(DomainError) as info:
        walls._witness_walk(2, 0, 3, 0)
    assert str(info.value) == "walk needs det < 0 < q(v), got det = 6, q(v) = 3"
    with pytest.raises(DomainError) as info:
        BNParams(4, 5, 3, 0)
    assert str(info.value) == ("constraint violated: 0 <= delta <= p - "
                               "2*epsilon (got delta=5, p=4, epsilon=0)")
