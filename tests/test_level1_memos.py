"""The memos of the four level-1 routes: each list of coefficients grows only
when a call asks for a higher order, so a route visited in any order of its
windows must equal the same route computed from empty memos, and each side
of an identity must read its own memo alone."""
import random

import pytest

from ribbonchar import characters, schur, twisted
from ribbonchar.characters import level1_decomposition, level1_theta
from ribbonchar.twisted import twisted_decomposition, twisted_level1_theta
from helpers import level1_decomposition_by_strips

MEMOS = [(characters, "_DECOMP_CACHE"), (characters, "_THETA_CACHE"),
         (twisted, "_TWISTED_DECOMP_CACHE"), (twisted, "_TWISTED_THETA_CACHE")]
LEVEL1 = [(n, k, order) for n in range(1, 6) for k in range(n) for order in range(7)]
TWISTED = [(n, order) for n in range(1, 4) for order in range(7)]


class Refusing(dict):
    """A memo that fails the test on any access."""

    def refuse(self, *args, **kwargs):
        raise AssertionError("a route read another route's memo")

    __getitem__ = __setitem__ = __delitem__ = __contains__ = __iter__ = __len__ = refuse
    get = setdefault = pop = keys = values = items = update = clear = refuse


@pytest.fixture
def empty_memos(monkeypatch):
    """Every level-1 memo replaced by an empty dict of this test's own."""
    def empty():
        for module, name in MEMOS:
            monkeypatch.setattr(module, name, {})

    empty()
    return empty


def cold(empty, route, *args):
    """``route(*args)`` from empty memos, emptied again afterwards."""
    empty()
    try:
        return route(*args)
    finally:
        empty()


def visits(windows):
    """The windows by ascending order, by descending order and shuffled."""
    ascending = sorted(windows, key=lambda w: (w[-1], w))
    shuffled = list(windows)
    random.Random(5).shuffle(shuffled)
    return [ascending, ascending[::-1], shuffled]


def test_level1_memos_equal_a_cold_computation(empty_memos):
    expected = {}
    for window in LEVEL1:
        theta = cold(empty_memos, level1_theta, *window)
        a = cold(empty_memos, level1_decomposition, *window, "a")
        b = cold(empty_memos, level1_decomposition, *window, "b")
        assert theta == a == b, window
        assert cold(empty_memos, level1_decomposition, *window, "ab") == (a, b), window
        expected[window] = theta, a, b
    for seq in visits(LEVEL1):
        empty_memos()
        # the variant cycles, so every list is grown by "a", "b" and "ab" calls
        for i, window in enumerate(seq):
            theta, a, b = expected[window]
            assert level1_theta(*window) == theta, window
            variant = ("a", "b", "ab")[i % 3]
            got = level1_decomposition(*window, variant)
            assert got == {"a": a, "b": b, "ab": (a, b)}[variant], (window, variant)


@pytest.mark.parametrize("n", range(1, 6))
def test_fill_by_last_column_groups_equals_the_fill_by_strips(empty_memos, monkeypatch, n):
    # every window from empty memos, the prefix Schur memo included, so the
    # fill looks up prefixes that no strip of an earlier window has held
    for k in range(n):
        for order in range(7 if n < 5 else 6):
            for variant in ("a", "b", "ab"):
                expected = level1_decomposition_by_strips(n, k, order, variant)
                monkeypatch.setattr(schur, "_STRIP_CACHE", {})
                got = cold(empty_memos, level1_decomposition, n, k, order, variant)
                assert got == expected, (n, k, order, variant)


def test_twisted_memos_equal_a_cold_computation(empty_memos):
    expected = {}
    for window in TWISTED:
        strips = cold(empty_memos, twisted_decomposition, *window)
        theta = cold(empty_memos, twisted_level1_theta, *window)
        assert strips == theta, window
        expected[window] = strips
    for seq in visits(TWISTED):
        empty_memos()
        for window in seq:
            assert twisted_decomposition(*window) == expected[window], window
            assert twisted_level1_theta(*window) == expected[window], window


def test_each_side_reads_its_own_memo(monkeypatch):
    memos = [getattr(module, name) for module, name in MEMOS]
    assert len({id(memo) for memo in memos}) == len(memos)
    routes = [
        (lambda n, k, order: level1_decomposition(n, k, order, "ab"), LEVEL1, 0),
        (level1_theta, LEVEL1, 1),
        (twisted_decomposition, TWISTED, 2),
        (twisted_level1_theta, TWISTED, 3),
    ]
    for route, windows, own in routes:
        with monkeypatch.context() as patch:
            for i, (module, name) in enumerate(MEMOS):
                patch.setattr(module, name, {} if i == own else Refusing())
            for seq in visits([w for w in windows if w[0] <= 4 and w[-1] <= 4]):
                for window in seq:
                    route(*window)
