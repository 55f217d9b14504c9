"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
check is exact polynomial or series equality, no tolerances anywhere.
"""
import random
import time
from collections import Counter
from fractions import Fraction

from ribbonchar.characters import (
    A_closed,
    F_N,
    kostka_foulkes,
    kostka_oracle,
    level1_decomposition,
    level1_theta,
    polychronakos_partition,
    rogers_szego,
)
from ribbonchar.polyring import QPoly, Ring
from ribbonchar.schur import (
    schur_conjugate,
    schur_enumerative,
    schur_jacobi_trudi,
    schur_strip_cached,
    e_m,
)
from ribbonchar.shapes import BorderStrip, Partition, SkewDiagram, complement, drinfeld_polynomials
from ribbonchar.spectra import (
    SpectrumPoint,
    Z_vertex,
    Z_vertex_direct,
    enumerate_Sp_N,
    enumerate_fiber,
    fiber_character,
    kappa,
    motif_to_blocks,
    motifs,
    phi,
    phi_inverse,
    weight,
)
from ribbonchar.tableaux import (
    STANDARD,
    Tableau,
    enumerate_sst,
    gz_from_sst,
    sst_from_gz,
    tableau_weight,
)
from ribbonchar import twisted as tw
from helpers import A_coefficient, conjugate_by_fillings
from test_schur import strip_matrix_det


def announce(number, label):
    print(f"ACCEPTANCE {number:02d} {label}: PASS")


def partitions_bounded(max_size, max_width):
    out = [Partition()]

    def grow(rest, maxpart, acc):
        if acc:
            out.append(Partition(acc))
        if rest == 0:
            return
        for p in range(min(rest, maxpart), 0, -1):
            grow(rest - p, p, acc + [p])

    grow(max_size, max_width, [])
    return sorted(set(out))


def nested_partitions(outer):
    def grow(i, cap, acc):
        if i == len(outer.parts):
            yield Partition(acc)
            return
        for v in range(min(cap, outer.parts[i]), -1, -1):
            yield from grow(i + 1, v, acc + [v])

    yield from grow(0, outer.part(1) if outer.parts else 0, [])


def test_criterion_01_kostka_foulkes():
    started = time.perf_counter()
    result = kostka_foulkes(Partition((3, 2, 1)))
    expected = QPoly({4: 1, 5: 2, 6: 2, 7: 3, 8: 3, 9: 2, 10: 2, 11: 1})
    assert result.polynomial == expected
    assert len(result.strips) == 14
    for lam in partitions_bounded(6, 6):
        if lam.size() == 0:
            continue
        assert kostka_foulkes(lam).polynomial == kostka_oracle(lam), lam
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    announce(1, "Kostka-Foulkes strip formula and oracle")


def test_criterion_01_kostka_foulkes_at_scale():
    started = time.perf_counter()
    for lam in (Partition((5, 4, 3, 2)), Partition((4, 4, 3, 2, 1))):
        assert kostka_foulkes(lam).polynomial == kostka_oracle(lam), lam
    elapsed = time.perf_counter() - started
    assert elapsed < 2.5, f"took {elapsed:.1f}s"
    announce(1, "Kostka-Foulkes strip formula and oracle at sizes 14 and 15")


def test_criterion_02_strip_sum_equals_multinomial():
    started = time.perf_counter()
    r2 = Ring(2)
    x1, x2 = r2.gens()
    assert F_N(1, 2) == x1 + x2 == rogers_szego(1, 2)
    assert F_N(2, 2) == rogers_szego(2, 2) == (
        x1 * x1 + x2 * x2 + x1 * x2 * QPoly({0: 1, 1: 1})
    )
    assert F_N(2, 2) == schur_strip_cached((2,), 2) * QPoly.term(1) + schur_strip_cached((1, 1), 2)
    for n in (2, 3):
        for N in range(0, 8):
            assert F_N(N, n) == rogers_szego(N, n), (n, N)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    announce(2, "strip sum equals multinomial polynomial, relation off")


def test_criterion_03_schur_cross_oracles():
    for n in (1, 2, 3, 4):
        for outer in partitions_bounded(8, 4):
            for inner in nested_partitions(outer):
                sd = SkewDiagram(outer, inner)
                assert schur_enumerative(sd, n) == schur_jacobi_trudi(sd, n), (
                    str(sd),
                    n,
                )
    for n in (2, 3, 4):
        ring = Ring(n)

        def strips(r):
            if r == 0:
                yield ()
                return
            for rest in strips(r - 1):
                for m in range(1, n + 1):
                    yield rest + (m,)

        for r in range(0, 5):
            for cols in strips(r):
                det = strip_matrix_det(BorderStrip(cols), n)
                assert det == schur_jacobi_trudi(BorderStrip(cols).realize(), n)
                assert det == schur_strip_cached(cols, n)
                # first-row expansion
                acc = ring.zero()
                idx = 0
                for i in range(1, r + 1):
                    idx += cols[r - i]
                    term = e_m(ring, idx) * strip_matrix_det(
                        BorderStrip(cols[: r - i]), n
                    )
                    acc = acc + (term if i % 2 == 1 else -term)
                if r:
                    assert acc == det
    announce(3, "enumeration = determinant = strip determinant + recursion")


def test_criterion_04_spectral_decomposition():
    for n in (2, 3):
        points = [SpectrumPoint((), n)]

        def grow(blocks, total):
            for m in range(1, n + 1):
                if total + m > 6:
                    continue
                if m != n:
                    points.append(SpectrumPoint(blocks + (m,), n))
                grow(blocks + (m,), total + m)

        grow((), 0)
        for h in points:
            shape = kappa(h).realize()
            tableaux = list(enumerate_sst(shape, n))
            fiber = list(enumerate_fiber(h))
            assert len(tableaux) == len(fiber)
            assert Counter(tableau_weight(t) for t in tableaux) == Counter(
                weight(s) for s in fiber
            )
            images = set()
            for t in tableaux:
                s = phi(t, h)
                assert weight(s) == tableau_weight(t)
                assert phi_inverse(s, h) == t
                images.add(s)
            assert len(images) == len(tableaux)
            ring = Ring(n)
            character = ring.from_terms((weight(s), 1) for s in fiber)
            assert character == schur_enumerative(shape, n)
    announce(4, "fiber character equals strip Schur; reading map bijective")


def test_criterion_05_level1_character_identity():
    started = time.perf_counter()
    for n in (2, 3, 4):
        for k in range(n):
            theta = level1_theta(n, k, 6)
            for variant in ("a", "b"):
                dec = level1_decomposition(n, k, 6, variant)
                equal, mismatch = theta.compare(dec)
                assert equal, (n, k, variant, mismatch)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    announce(5, "lattice theta equals strip decomposition, both variants")


def test_criterion_06_polychronakos_equivalence():
    for n in (2, 3):
        for N in range(0, 7):
            h_form = polychronakos_partition(N, n)
            strip_form = Z_vertex(N, n)
            direct = Z_vertex_direct(N, n)
            assert h_form.compare(strip_form)[0], (n, N)
            assert strip_form.compare(direct)[0], (n, N)
        for N in range(1, 7):
            ms = list(motifs(N, n))
            sp = list(enumerate_Sp_N(N, n))
            assert len(ms) == len(sp)
            assert sorted(motif_to_blocks(d, n) for d in ms) == sorted(sp)
    for n, start in ((2, 4), (3, 6)):
        for N in range(start, 9):
            a = polychronakos_partition(N, n, relation=True)
            b = polychronakos_partition(N + n, n, relation=True)
            for j in range(3):
                ca = a.coeffs[j] if j <= a.order else a.ring.zero()
                cb = b.coeffs[j] if j <= b.order else b.ring.zero()
                assert ca == cb, (n, N, j)
    announce(6, "reversed multinomial = strip sum = configuration sum; motifs")


def test_criterion_07_factorization():
    rng = random.Random(2024)
    done = 0
    while done < 50:
        n = rng.choice((2, 3, 4))
        r = rng.randint(2, 6)
        cols = [rng.randint(1, n) for _ in range(r)]
        splits = [i for i in range(1, r) if cols[i - 1] + cols[i] >= n + 1]
        if not splits:
            continue
        i = rng.choice(splits)
        whole = schur_strip_cached(tuple(cols), n)
        left = schur_strip_cached(tuple(cols[:i]), n)
        right = schur_strip_cached(tuple(cols[i:]), n)
        assert whole == left * right, (cols, i, n)
        done += 1
    announce(7, "strip Schur factorization at tall adjacent columns")


def test_criterion_08_conjugate_complement():
    cases = [(SkewDiagram(Partition((5, 4, 3, 1)), Partition((3, 2))), 4)]
    rng = random.Random(4096)
    while len(cases) < 31:
        n = rng.randint(2, 4)
        outer = Partition(
            sorted((rng.randint(1, 5) for _ in range(rng.randint(1, n))), reverse=True)
        )
        inner = rng.choice(list(nested_partitions(outer)))
        sd = SkewDiagram(outer, inner)
        if sd.rank() <= n:
            cases.append((sd, n))
    for sd, n in cases:
        conj = schur_conjugate(sd, n)
        assert conj == schur_enumerative(complement(sd, n), n, relation=True), (str(sd), n)
        assert conj == conjugate_by_fillings(sd, n), (str(sd), n)
    announce(8, "conjugate Schur equals complement Schur under the relation")


def test_criterion_09_gz_bijection():
    shapes = [
        SkewDiagram.from_str("3,2/1"),
        SkewDiagram.from_str("2,2/1"),
        SkewDiagram.from_str("3,1/0"),
        SkewDiagram.from_str("2,2,1/1,1"),
        SkewDiagram.from_str("4,2/2"),
    ]
    for sd in shapes:
        n = 2 if sd.rank() <= 2 else 3
        count = 0
        for t in enumerate_sst(sd, n):
            g = gz_from_sst(t, N=sd.inner.length())
            assert sst_from_gz(g) == t
            assert g.weight() == tableau_weight(t)
            count += 1
        assert count > 0
    sd = SkewDiagram.from_str("5,4,4,1/4,3,2")
    t = Tableau(sd, {(1, 5): 2, (2, 4): 1, (3, 3): 2, (3, 4): 2, (4, 1): 3}, STANDARD, 3)
    g = gz_from_sst(t, 3)
    assert [tuple(r) for r in g.rows] == [
        (4, 3, 2),
        (4, 4, 2),
        (5, 4, 4),
        (5, 4, 4, 1),
    ]
    assert sst_from_gz(g) == t
    announce(9, "scheme/tableau bijection round-trips and preserves weight")


def test_criterion_10_drinfeld_data():
    data = drinfeld_polynomials(SkewDiagram.from_str("5,4,4,1/4,3,2,0"), 4)
    assert data[1] == ((Fraction(-3), -1), (Fraction(0), -1), (Fraction(4), -1))
    assert data[2] == ((Fraction(3, 2), -1),)
    assert data[3] == ()
    announce(10, "classifying polynomial roots of the pictured shape")


def test_criterion_11_a_coefficients():
    for n in (2, 3, 4):
        for N in range(1, 9):
            for m in range(1, min(n, N) + 1):
                assert A_coefficient(N, m, n) == A_closed(N, m), (N, m, n)
    for N in range(2, 9):
        for m in range(2, N + 1):
            assert A_coefficient(N, m) == -(QPoly({0: 1, N - 1: -1})) * A_coefficient(
                N - 1, m - 1
            ), (N, m)
    announce(11, "ordered-partition sums match closed form and recursion")


def test_criterion_12_twisted_model():
    started = time.perf_counter()
    ring1 = Ring(1)
    ground = ring1.monomial((1,)) + ring1.monomial((-1,))
    assert tw.chi_twisted((), 1) == ground
    assert tw.chi_twisted((), 1, method="fiber") == ground
    assert tw.sL_determinant((), 1) == ground
    for n in (1, 2):
        blocks_list = [()]

        def grow(acc, depth):
            if depth == 0:
                return
            for m in (1, 2, 3):
                blocks_list.append(tuple(acc + [m]))
                grow(acc + [m], depth - 1)

        grow([], 3)
        for blocks in blocks_list:
            tab = tw.chi_twisted(blocks, n)
            fib = tw.chi_twisted(blocks, n, method="fiber")
            det = tw.sL_determinant(blocks, n)
            assert tab == fib == det, (blocks, n)
        dec = tw.twisted_decomposition(n, 5)
        theta = tw.twisted_level1_theta(n, 5)
        equal, mismatch = dec.compare(theta)
        assert equal, (n, mismatch)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    announce(12, "twisted characters three ways and level-1 identity")


def test_criterion_12_fiber_characters_at_scale():
    # the fiber sum counts each fiber's words position by position; listing
    # them one by one took about 3 s for the brute route alone here
    started = time.perf_counter()
    assert tw.twisted_character_brute(4, 7) == tw.twisted_decomposition(4, 7)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    blocks = (1, 2, 3, 4, 1, 2, 3, 1)
    for relation in (False, True):
        assert fiber_character(SpectrumPoint(blocks, 4), relation) == schur_strip_cached(
            blocks, 4, relation
        )
    announce(12, "twisted fiber sum at (4, 7) and a rank-4 fiber of 17 cells")
