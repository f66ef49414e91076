"""The shared consistency checks at large parameters.

The acceptance gates run every check over the small grid k <= 8, p <= 40.
Here the same checks run at random points with k up to 500 and p up to
1e8.  Most of delta is drawn near the genus g = p - delta ~ 2*sqrt(h*p),
where pencils exist and q(R) changes sign, so the checks that need a
pencil or a negative square apply often.
"""

from __future__ import annotations

import random
from collections import Counter
from math import isqrt

from wallkit import checks
from wallkit.checks import CHECKS, Point


def _random_point(rng: random.Random) -> Point:
    eps = rng.randint(0, 1)
    k = rng.randint(2, 500)
    p = rng.choice((rng.randint(2, 10**4), rng.randint(2, 10**8)))
    h = k - 1 + 2 * eps
    if rng.random() < 0.1:
        # Anywhere below g = 200h, which keeps the Brill-Noether route
        # (about g / 2h steps) short.
        g = rng.randint(0, 200 * h)
    else:
        g = isqrt(4 * h * p) + rng.randint(-3 * h, 3 * h)
    g = min(max(g, 2 * eps), p)
    return Point(eps, k, p, p - g)


def test_checks_hold_at_large_parameters():
    rng = random.Random(20261017)
    applied: Counter = Counter()
    for _ in range(400):
        pt = _random_point(rng)
        for name, check in CHECKS.items():
            result = check(pt)
            if result is None:
                continue
            ok, payload = result
            assert ok, (name, pt.params, payload)
            applied[name] += 1
    for name in CHECKS:
        if name != "witness-oracle":
            assert applied[name] >= 20, (name, applied)


def test_point_computes_each_field_once(monkeypatch):
    calls: Counter = Counter()
    for name in ("curve_class", "exists_pencil", "_square", "wall_test"):
        def counted(*args, _name=name, _fn=getattr(checks, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(checks, name, counted)
    first, second = Point(0, 4, 6, 0), Point(0, 4, 6, 1)
    for pt in (first, second, first, second):
        for check in CHECKS.values():
            check(pt)
    assert calls == {"curve_class": 2, "exists_pencil": 2,
                     "_square": 2, "wall_test": 2}
    assert first.square is first.square
    assert first.square != second.square
