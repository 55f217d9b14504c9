import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from collections import OrderedDict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ribbonchar
from ribbonchar import characters, cli
from ribbonchar import schur as schur_module
from ribbonchar import spectra as spectra_module
from ribbonchar import twisted as twisted_module
from ribbonchar.cli import dumps_indented, laurent_to_json, main
from ribbonchar.polyring import QPoly, QSeries, Ring, build_qseries, qpoly_to_json
from ribbonchar.shapes import BorderStrip, Partition
from ribbonchar.spectra import SpectrumPoint, enumerate_Sp_N, enumerate_fiber, weight
from wire import laurent_from_json, laurent_terms, qpoly_from_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_schur_strip_method_matches_jt(capsys):
    strips = [blocks for size in range(6) for blocks in enumerate_Sp_N(size, 5)]
    assert len(strips) == 32
    for blocks in strips:
        shape = str(BorderStrip(blocks).realize())
        for n in ("1", "2", "3"):
            for relation in ((), ("--relation",)):
                argv = ("schur", "--shape", shape, "--n", n) + relation
                polys = []
                for method in ("strip", "jt"):
                    code, out, _ = run(capsys, *argv, "--method", method)
                    assert code == 0
                    polys.append(json.loads(out)["polynomial"])
                assert polys[0] == polys[1], (shape, n, relation)


def test_kostka_command(capsys):
    code, out, _ = run(capsys, "kostka", "--lambda", "3,2,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["polynomial"] == [
        [4, 1], [5, 2], [6, 2], [7, 3], [8, 3], [9, 2], [10, 2], [11, 1]
    ]
    assert doc["strip_count"] == 14
    assert doc["equal"] is True


def test_kostka_at_a_large_rank_answers_as_at_rank_len_lam(capsys):
    # both sides read the terms at rank len(lambda): summed at rank n, the
    # bialternant took 10 s at --n 10000 and over a minute at 30000
    started = time.perf_counter()
    code, out, _ = run(capsys, "kostka", "--lambda", "3,2,1", "--n", "30000")
    assert time.perf_counter() - started < 2.0
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 30000
    assert doc["equal"] is True
    code, out, _ = run(capsys, "kostka", "--lambda", "3,2,1", "--n", "3")
    assert code == 0
    assert doc["polynomial"] == json.loads(out)["polynomial"]


@pytest.mark.parametrize("n", ["2", "0", "-1"])
def test_kostka_rank_below_length_is_usage_error(capsys, n):
    # with fewer letters than rows the oracle is 0 by convention, so neither
    # a mismatch (n = 2) nor a vacuous agreement (n <= 0) would mean anything
    code, out, err = run(capsys, "kostka", "--lambda", "3,2,1", "--n", n)
    assert code == 2
    assert out == ""
    assert "--n must be at least 3" in json.loads(err)["error"]


@pytest.mark.parametrize("argv", [
    ("decompose", "--n", "3", "--k", "5"),
    ("decompose", "--n", "0", "--k", "0"),
    ("verify", "djkmo", "--n", "3", "--k", "3"),
    ("verify", "djkmo", "--order", "-1"),
    ("twisted", "verify", "--n", "0"),
    ("twisted", "verify", "--n", "1", "--order", "-1"),
    ("schur", "--shape", "2,1", "--n", "0"),
    ("verify", "rogers", "--N", "-1"),
    ("verify", "polychronakos", "--n", "0"),
    ("verify", "polychronakos", "--N", "-1"),
    ("fiber", "--n", "0", "--h", ""),
    ("spectrum", "--n", "0", "--N", "3"),
    ("spectrum", "--n", "2", "--N", "-1"),
    ("twisted", "schur", "--n", "0"),
    ("twisted", "schur", "--n", "1", "--h", "1,0"),
    ("spectrum", "--n", "2", "--N", "3", "--sector", "5"),
    ("spectrum", "--n", "2", "--N", "3", "--sector", "-1"),
    ("schur", "--shape", "3,2,1", "--n", "3", "--method", "strip"),
    ("schur", "--shape", "2,2", "--n", "2", "--method", "strip"),
])
def test_level1_arguments_out_of_range_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]


def test_verify_polychronakos_at_benchmark_size(capsys):
    code, out, _ = run(capsys, "verify", "polychronakos", "--n", "3", "--N", "10")
    assert code == 0
    doc = json.loads(out)
    assert [c["equal"] for c in doc["checks"]] == [True, True]
    assert doc["equal"] is True


def test_verify_rogers_trivial(capsys):
    code, out, _ = run(capsys, "verify", "rogers", "--n", "2", "--N", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["equal"] is True


def test_schur_methods_agree(capsys):
    _, out_enum, _ = run(capsys, "schur", "--shape", "2/0", "--n", "2", "--method", "enum")
    _, out_jt, _ = run(capsys, "schur", "--shape", "2/0", "--n", "2", "--method", "jt")
    poly_enum = json.loads(out_enum)["polynomial"]
    poly_jt = json.loads(out_jt)["polynomial"]
    assert poly_enum == poly_jt


def test_output_is_deterministic(capsys):
    first = run(capsys, "decompose", "--n", "3", "--k", "1", "--order", "4")
    second = run(capsys, "decompose", "--n", "3", "--k", "1", "--order", "4")
    a = json.loads(first[1])
    b = json.loads(second[1])
    a.pop("wall_time_ms")
    b.pop("wall_time_ms")
    assert json.dumps(a) == json.dumps(b)


def stdout_bytes(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue().encode()


@st.composite
def character_commands(draw):
    """One of the character commands whose outputs carry no timing, on a
    small block list (a valid spectrum point for ``fiber``)."""
    kind = draw(st.sampled_from(["schur", "fiber", "enum", "fiber-twisted"]))
    # twisted fibers at n = 3 and size 9 run to hundreds of thousands of words
    n = draw(st.integers(1, 2 if kind in ("enum", "fiber-twisted") else 3))
    blocks = draw(st.lists(st.integers(1, 3), max_size=3))
    if kind == "schur":
        shape = str(BorderStrip(blocks).realize())
        return ["schur", "--shape", shape, "--n", str(n), "--method", "enum"]
    if kind == "fiber":
        blocks = [min(m, n) for m in blocks]
        while blocks and blocks[-1] == n:
            blocks.pop()
    h = ",".join(map(str, blocks))
    if kind == "fiber":
        return ["fiber", "--n", str(n), "--h", h]
    method = "enum" if kind == "enum" else "fiber"
    return ["twisted", "schur", "--n", str(n), "--h", h, "--method", method]


@settings(max_examples=40, deadline=None)
@given(character_commands())
def test_character_output_bytes_repeat_in_process(argv):
    assert stdout_bytes(argv) == stdout_bytes(argv)


def test_usage_errors(capsys):
    code, _, err = run(capsys, "schur", "--shape", "bogus", "--n", "2")
    assert code == 2
    assert "bogus" in err
    code, _, _ = run(capsys, "fiber", "--n", "2", "--h", "2,2")
    assert code == 2
    code, _, _ = run(capsys, "nonsense")
    assert code == 2


def test_fiber_command(capsys):
    code, out, _ = run(capsys, "fiber", "--n", "2", "--h", "1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] == 3
    assert sorted(tuple(c) for c in doc["configurations"]) == [
        (1, 1), (2, 1), (2, 2)
    ]


def test_spectrum_csv(capsys):
    code, out, _ = run(capsys, "spectrum", "--n", "2", "--N", "2", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("blocks;")
    assert len(lines) == 3


def test_spectrum_fiber_sizes_count_the_configurations(capsys):
    # every word of length N lies in one fiber, so the sizes add up to n^N,
    # and each is its strip's Schur function at x = 1
    for n, N in ((1, 5), (2, 9), (3, 6), (5, 6)):
        code, out, _ = run(capsys, "spectrum", "--n", str(n), "--N", str(N))
        assert code == 0
        points = json.loads(out)["points"]
        assert sum(p["fiber_size"] for p in points) == n ** N, (n, N)
        for p in points:
            strip = schur_module.schur_strip_cached(tuple(p["blocks"]), n)
            assert p["fiber_size"] == strip.at_x_ones().at(), (n, p["blocks"])


def test_strip_sum_past_the_packed_q_range_is_usage_error(capsys, monkeypatch):
    # the prefix sums of the strip of 46341 cells add up past the packed q
    # digit, so the strip sum raises OverflowError and the command exits 2
    monkeypatch.setattr(schur_module, "_SIZE_CACHE", {})
    for what in ("rogers", "polychronakos"):
        code, out, err = run(capsys, "verify", what, "--n", "1", "--N", "46341")
        assert (code, out) == (2, ""), what
        assert "outside the packed range" in json.loads(err)["error"], what


def test_spectrum_json_sector_filter(capsys):
    code, out, _ = run(capsys, "spectrum", "--n", "3", "--N", "4", "--sector", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["points"]
    assert all(p["sector"] == 1 for p in doc["points"])


def test_twisted_commands(capsys):
    code, out, _ = run(capsys, "twisted", "verify", "--n", "1", "--order", "4")
    assert code == 0
    assert json.loads(out)["equal"] is True
    _, out_enum, _ = run(capsys, "twisted", "schur", "--h", "1,2", "--n", "2", "--method", "enum")
    _, out_det, _ = run(capsys, "twisted", "schur", "--h", "1,2", "--n", "2", "--method", "det")
    assert json.loads(out_enum)["polynomial"] == json.loads(out_det)["polynomial"]


def test_verify_djkmo(capsys):
    code, out, _ = run(capsys, "verify", "djkmo", "--n", "2", "--k", "1", "--order", "4")
    assert code == 0
    doc = json.loads(out)
    assert all(c["equal"] for c in doc["checks"])
    assert all(c["window"] == ["1/4", 4] for c in doc["checks"])


def add_x1_to_theta(monkeypatch):
    """Make ``level1_theta`` return the true theta plus x_1 q^(offset + 2)."""
    real_theta = characters.level1_theta

    def faulty_theta(n, k, order):
        theta = real_theta(n, k, order)
        extra = [(theta.offset + 2, theta.ring.gen(1))]
        return theta + build_qseries(theta.ring, theta.offset, order, extra)

    monkeypatch.setattr(characters, "level1_theta", faulty_theta)


def test_verify_djkmo_reports_first_mismatch(capsys, monkeypatch):
    # a theta with one extra monomial x_1 q^(offset + 2) must fail both
    # checks there, and the report must show that monomial and nothing else
    add_x1_to_theta(monkeypatch)
    code, out, _ = run(capsys, "verify", "djkmo", "--n", "2", "--k", "1", "--order", "4")
    assert code == 1
    doc = json.loads(out)
    assert doc["equal"] is False
    assert len(doc["checks"]) == 2
    for check in doc["checks"]:
        assert check["equal"] is False
        first = check["first_mismatch"]
        assert first["exponent"] == "9/4"
        lhs, rhs = laurent_from_json(first["lhs"]), laurent_from_json(first["rhs"])
        assert rhs - lhs == lhs.ring.gen(1)


def test_mismatch_report_bytes(capsys, monkeypatch):
    # the report of the faulty theta carries Laurent values in both
    # first_mismatch entries: its text must be the stdlib text of the
    # document, and is pinned by length and hash with wall_time_ms zeroed
    add_x1_to_theta(monkeypatch)
    docs = []

    def spy(doc):
        docs.append(doc)
        return dumps_indented(doc)

    monkeypatch.setattr(cli, "dumps_indented", spy)
    code, out, _ = run(capsys, "verify", "djkmo", "--n", "2", "--k", "1", "--order", "4")
    assert code == 1
    assert out == json.dumps(docs[0], indent=2, default=laurent_terms) + "\n"
    text = re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', out).encode()
    assert len(text) == 4587
    assert hashlib.sha256(text).hexdigest() == (
        "1be17c9a3c0691c5489bd5a8b4fe261a2d35cb951daa8633f4fcc4910ed24311")


def test_verify_all_quick(capsys):
    code, out, _ = run(capsys, "verify", "all", "--quick")
    assert code == 0
    doc = json.loads(out)
    assert doc["equal"] is True
    assert len(doc["checks"]) >= 8


def test_verify_all_reports_kostka_mismatch(capsys, monkeypatch):
    # the Kostka check compares two q-polynomials; a fault there must be a
    # mismatch with both sides in the report, not a crash
    real_oracle = characters.kostka_oracle
    monkeypatch.setattr(characters, "kostka_oracle",
                        lambda *args: real_oracle(*args) + QPoly.term(1))
    code, out, _ = run(capsys, "verify", "all", "--quick")
    assert code == 1
    doc = json.loads(out)
    assert doc["equal"] is False
    (check,) = [c for c in doc["checks"] if not c["equal"]]
    assert check["identity"] == "kostka_strip_sum_equals_extraction"
    first = check["first_mismatch"]
    lhs, rhs = qpoly_from_json(first["lhs"]), qpoly_from_json(first["rhs"])
    assert lhs == real_oracle(Partition((3, 2, 1)))
    assert rhs - lhs == QPoly.term(1)


# one plain command line per subcommand and verification
COMMAND_LINES = [
    ["schur", "--shape", "3,2/1", "--n", "3", "--method", "jt", "--pretty"],
    ["spectrum", "--n", "3", "--N", "5"],
    ["fiber", "--n", "3", "--h", "2,1,2", "--relation", "--pretty"],
    ["decompose", "--n", "2", "--k", "1", "--order", "4", "--variant", "b", "--pretty"],
    ["kostka", "--lambda", "3,1"],
    ["verify", "rogers", "--n", "2", "--N", "4"],
    ["verify", "djkmo", "--n", "2", "--k", "0", "--order", "4"],
    ["verify", "polychronakos", "--n", "2", "--N", "4"],
    ["verify", "all", "--quick"],
    ["twisted", "verify", "--n", "1", "--order", "3"],
    ["twisted", "schur", "--n", "2", "--h", "1,2", "--method", "det", "--pretty"],
]


# length and sha256 of the stdout of each verify command line, with
# wall_time_ms zeroed: the key order, report list, names and parameters
VERIFY_BYTES = {
    ("verify", "all"):
        (3770, "7e9826d8296547a259b11804a8fa641312b56284b867bc847631eea250c0df8b"),
    ("verify", "all", "--quick"):
        (2779, "efece031b659bd2419942f689cc8c2be4f5f2806bb1df6901b9b5ce054426adb"),
    ("verify", "rogers", "--n", "2", "--N", "4"):
        (415, "dfa548ed76d3d6d022bd4ea21cbea5f3f2e17c01e620782e106c4e6c8b2e7b47"),
    ("verify", "djkmo", "--n", "2", "--k", "0", "--order", "4"):
        (530, "637ad6aada5292ae5d3e0640a2349a024a9022cd7f653a3b7656474c0f5646bb"),
    ("verify", "polychronakos", "--n", "2", "--N", "4"):
        (493, "0e7c158e40a7ad1d6311206adb74e18ad9a6082c420b3e4a65c3403c2eb9fbd8"),
    ("twisted", "verify", "--n", "1", "--order", "3"):
        (182, "5a7e1ad29342720cbecc104952fcc831c8c9f1f510119b2a87f81ba0877dbb19"),
}


def test_verify_bytes_cover_every_verify_command_line():
    lines = {tuple(argv) for argv in COMMAND_LINES if "verify" in argv[:2]}
    assert set(VERIFY_BYTES) == lines | {("verify", "all")}


@pytest.mark.parametrize("argv", sorted(VERIFY_BYTES), ids=" ".join)
def test_verify_output_bytes(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    text = re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', out).encode()
    assert (len(text), hashlib.sha256(text).hexdigest()) == VERIFY_BYTES[argv]


# the same for decompose, whose series values the perfbench digests pin only
# through the equal flags of verify djkmo: ranks 2..5, both variants
DECOMPOSE_BYTES = {
    ("decompose", "--n", "2", "--k", "1", "--order", "6"):
        (4741, "dce922862ef303da682d031c29959c97cc07f2fb754c06e96dfbb55c58f04342"),
    ("decompose", "--n", "3", "--k", "0", "--order", "6", "--variant", "b"):
        (16127, "5fc5075da624143bbac8147ed6fafdb91681175fbd6d1b9feb34f05457e319e7"),
    ("decompose", "--n", "3", "--k", "2", "--order", "5", "--pretty"):
        (14570, "7c4c4ff1198abb0217466b65993c5c4cb2ae39245c50317431328a329d78b268"),
    ("decompose", "--n", "4", "--k", "1", "--order", "5", "--variant", "b"):
        (48567, "3c7a89fa16f8b5ef6906b630f3d275e66f7bc656b9fec9fabe2fea55ae0a9c76"),
    ("decompose", "--n", "4", "--k", "2", "--order", "4"):
        (33243, "638350d4cf2cf2559f0a754c0db8863cbd90a2bbd13c208fa14e5290676cd3ce"),
    ("decompose", "--n", "5", "--k", "0", "--order", "5"):
        (140015, "1d9e99d684fa6112c5f814356614f91d4df5aa452ae1324dfcc37d875d16562b"),
    ("decompose", "--n", "5", "--k", "3", "--order", "4", "--variant", "b"):
        (110569, "00e08474a47428455a8610bb6efa0c9616830a7f5a0ab3e5071bf65b219fcd58"),
}


@pytest.mark.parametrize("argv", sorted(DECOMPOSE_BYTES), ids=" ".join)
def test_decompose_output_bytes(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    text = re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', out).encode()
    assert (len(text), hashlib.sha256(text).hexdigest()) == DECOMPOSE_BYTES[argv]


def plus_x1(value):
    """``value`` plus x_1: at q^(offset + 1) in a series, the constant q^1
    in a polynomial of q alone."""
    if isinstance(value, QSeries):
        extra = [(value.offset + 1, value.ring.gen(1))]
        return value + build_qseries(value.ring, value.offset, value.order, extra)
    if isinstance(value, QPoly):
        return value + QPoly.term(1)
    return value + value.ring.gen(1)


def plus_x1_in_variant(which):
    """A ``level1_decomposition`` fault: x_1 added to variant ``which`` alone."""
    def fault(value, n, k, order, variant="a"):
        if variant == "ab":
            return tuple(plus_x1(v) if w == which else v for w, v in zip("ab", value))
        return plus_x1(value) if variant == which else value
    return fault


def only_positive(value):
    """Whether ``value`` is nonzero with positive coefficients only."""
    if isinstance(value, QPoly):
        pairs = qpoly_to_json(value)
    else:
        pairs = [pair for term in laurent_terms(value) for pair in term["q"]]
    return bool(pairs) and all(int(c) > 0 for _e, c in pairs)


def lifted(fault):
    return lambda value, *args, **kwargs: fault(value)


# each route that a verify report reads, with a fault that adds x_1 to its
# value, and the side on which each report that reads it shows that term
ROUTE_FAULTS = [
    (characters, "F_N", lifted(plus_x1), {"strip_sum_equals_multinomial": "lhs"}),
    (characters, "rogers_szego", lifted(plus_x1), {
        "strip_sum_equals_multinomial": "rhs",
        "multinomial_recursion": "rhs",
        "reversed_multinomial_equals_strip_sum": "lhs",
    }),
    (characters, "rogers_szego_recursive", lifted(plus_x1), {"multinomial_recursion": "lhs"}),
    (characters, "level1_decomposition", plus_x1_in_variant("a"),
     {"strip_decomposition_a_equals_theta": "lhs"}),
    (characters, "level1_decomposition", plus_x1_in_variant("b"),
     {"strip_decomposition_b_equals_theta": "lhs"}),
    (characters, "level1_theta", lifted(plus_x1), {
        "strip_decomposition_a_equals_theta": "rhs",
        "strip_decomposition_b_equals_theta": "rhs",
    }),
    (characters, "polychronakos_partition", lifted(plus_x1),
     {"reversed_multinomial_equals_strip_sum": "lhs"}),
    (spectra_module, "Z_vertex", lifted(plus_x1), {
        "reversed_multinomial_equals_strip_sum": "rhs",
        "strip_sum_equals_configuration_sum": "lhs",
    }),
    (spectra_module, "Z_vertex_direct", lifted(plus_x1),
     {"strip_sum_equals_configuration_sum": "rhs"}),
    (characters, "kostka_foulkes",
     lifted(lambda result: SimpleNamespace(polynomial=plus_x1(result.polynomial))),
     {"kostka_strip_sum_equals_extraction": "lhs"}),
    (characters, "kostka_oracle", lifted(plus_x1), {"kostka_strip_sum_equals_extraction": "rhs"}),
    (twisted_module, "twisted_decomposition", lifted(plus_x1),
     {"pinned_strip_decomposition_equals_theta": "lhs"}),
    (twisted_module, "twisted_level1_theta", lifted(plus_x1),
     {"pinned_strip_decomposition_equals_theta": "rhs"}),
]


@pytest.mark.parametrize("module, name, fault, sides", ROUTE_FAULTS,
                         ids=[f"{name}-{'/'.join(sides)}" for _m, name, _f, sides in ROUTE_FAULTS])
def test_route_fault_shows_in_the_reports_that_read_it(capsys, monkeypatch, module, name,
                                                       fault, sides):
    # the golden bytes cannot see a swapped lhs and rhs while both sides are
    # equal: a term added to one route must fail exactly the reports that
    # read it, on the side that reads it
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: fault(real(*args, **kwargs),
                                                                     *args, **kwargs))
    seen = set()
    for argv in COMMAND_LINES:
        if "verify" not in argv[:2]:
            continue
        code, out, _ = run(capsys, *argv)
        doc = json.loads(out)
        checks = doc.get("checks", [doc])
        reading = [c for c in checks if c["identity"] in sides]
        assert code == (1 if reading else 0), argv
        assert [c for c in checks if not c["equal"]] == reading, argv
        for check in reading:
            first = check["first_mismatch"]
            read = laurent_from_json if isinstance(first["lhs"], dict) else qpoly_from_json
            lhs, rhs = read(first["lhs"]), read(first["rhs"])
            side = "lhs" if only_positive(lhs - rhs) else "rhs" if only_positive(rhs - lhs) else None
            assert side == sides[check["identity"]], (argv, check["identity"])
            seen.add(check["identity"])
    assert seen == set(sides)


def parsed_by_argparse(argv):
    """``build_parser().parse_args(argv)``, or None where argparse exits
    (for help or a usage error); its printing is discarded."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return cli.build_parser().parse_args(argv)
        except SystemExit:
            return None


OPTIONS = sorted({t for _h, _f, args in cli.COMMANDS.values() for t in args if t[0] == "-"})
# near misses of the table's own tokens: abbreviations, the = form, help,
# bad values, unknown options and subcommands
JUNK = ["--ord", "--lam", "--meth", "--n=3", "--order=4", "-h", "--help", "--", "-",
        "-1", "-2", "x", "", "1.5", " 4", "٣", "3,1", "2,1/1", "--bogus", "wrong", "schur"]


@st.composite
def command_lines(draw):
    """A command line built from one subcommand's table entry: every
    required argument and some optional ones with valid values, in any
    order; then, often, a few edits: a junk token inserted or put in place
    of another, a token dropped or an option repeated."""
    name = draw(st.sampled_from(sorted(cli.COMMANDS)))
    _help, _func, arguments = cli.COMMANDS[name]
    number = st.sampled_from(["0", "1", "2", "3", "12", "007", "-1"])
    text = st.sampled_from(["3,1", "2,1/1", "1", "", "x y", "-1", "-x"])
    pieces = []
    for token, spec in arguments.items():
        if token[0] != "-":
            pieces.append([draw(st.sampled_from(spec["choices"]))])
        elif spec.get("required") or draw(st.booleans()):
            if spec.get("action") == "store_true":
                pieces.append([token])
            elif spec.get("choices"):
                pieces.append([token, draw(st.sampled_from(spec["choices"]))])
            else:
                pieces.append([token, draw(number if spec.get("type") else text)])
    argv = [name] + [t for piece in draw(st.permutations(pieces)) for t in piece]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        edit = draw(st.sampled_from(["insert", "replace", "drop", "repeat"]))
        at = draw(st.integers(0, len(argv)))
        if edit == "insert":
            argv.insert(at, draw(st.sampled_from(JUNK + OPTIONS)))
        elif edit == "replace" and at < len(argv):
            argv[at] = draw(st.sampled_from(JUNK + OPTIONS))
        elif edit == "drop" and at < len(argv):
            del argv[at]
        elif edit == "repeat" and pieces:
            argv += draw(st.sampled_from(pieces))
    return argv


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    command_lines(),
    command_lines(),
    st.lists(st.sampled_from(JUNK + OPTIONS + sorted(cli.COMMANDS)), max_size=6),
))
@example(["verify", "djkmo", "--ord", "3"])
@example(["kostka", "--lambda", "3,1", "--n", "-1"])
@example(["fiber", "--n", "2", "--h", "1", "--pretty", "--pretty"])
@example(["twisted", "--n", "2", "schur", "--h", "1,2"])
@example(["fiber", "--n", "2", "--h", "--pretty"])
@example(["schur", "--n", "1", "--shape"])
@example(["verify", "wrong"])
@example(["schur", "--shape", "2,1", "--n", "1", "--method", "x"])
@example(["verify"])
@example([])
def test_direct_parse_agrees_with_argparse(argv):
    direct = cli.parse_direct(argv)
    parsed = parsed_by_argparse(argv)
    if parsed is None:
        assert direct is None
    elif direct is not None:
        assert direct == parsed


@pytest.mark.parametrize("argv", COMMAND_LINES)
def test_direct_parse_accepts_plain_command_lines(argv):
    direct = cli.parse_direct(argv)
    assert direct is not None
    assert direct == cli.build_parser().parse_args(argv)


def test_abbreviation_parses_through_argparse(capsys):
    argv = ["verify", "djkmo", "--n", "2", "--ord", "3"]
    assert cli.parse_direct(argv) is None
    code, out, _ = run(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"][0]["parameters"] == {"n": 2, "k": 0, "order": 3}


@pytest.mark.parametrize("argv", [["-h"], ["schur", "--help"], ["verify", "all", "-h"]])
def test_help_exits_0_and_prints_help(capsys, argv):
    assert cli.parse_direct(argv) is None
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out.startswith("usage: ribbonchar")
    assert err == ""


@pytest.mark.parametrize("argv, direct", [
    (["schur", "--shape", "3,2/1", "--n", "2", "--method", "jt"], True),
    (["schur", "--sha", "3,2/1", "--n", "2", "--method", "jt"], False),
])
def test_main_without_argv_reads_sys_argv(capsys, monkeypatch, argv, direct):
    assert (cli.parse_direct(argv) is not None) == direct
    expected = run(capsys, *argv)
    monkeypatch.setattr(sys, "argv", ["ribbonchar", *argv])
    code = main(None)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == expected
    assert code == 0 and json.loads(captured.out)["method"] == "jt"


# strings built from the fragments an encoder can get wrong
tricky_text = st.lists(
    st.sampled_from(
        ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "中", "\U0001f600",
         "[", "]", "{", "}", ",", " ", ":", '", "', "a"]
    )
).map("".join) | st.text()


@st.composite
def int_rows(draw):
    """A list or tuple of rows of ints, all of one width, as the ``fiber``
    configurations are; sometimes one entry is a bool or a nested list, or
    one row is one entry longer, so the writer must fall back."""
    width = draw(st.integers(0, 4))
    cell = st.integers(-3, 3) | st.integers(-(10**30), 10**30)
    rows = draw(st.lists(st.lists(cell, min_size=width, max_size=width), min_size=1, max_size=5))
    flaw = draw(st.sampled_from(["none", "none", "bool", "nested", "longer"]))
    i = draw(st.integers(0, len(rows) - 1))
    if flaw == "longer":
        rows[i].append(draw(cell))
    elif flaw != "none" and width:
        odd = draw(st.booleans()) if flaw == "bool" else draw(st.lists(cell, max_size=2))
        rows[i][draw(st.integers(0, width - 1))] = odd
    rows = [draw(st.sampled_from([list, tuple]))(row) for row in rows]
    return draw(st.sampled_from([rows, tuple(rows)]))


json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**40), 10**40)
    | st.floats()
    | tricky_text
    | st.lists(st.integers(-(10**30), 10**30))
    | st.lists(st.integers(-3, 3) | st.booleans())
    | int_rows()
)
json_docs = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.dictionaries(tricky_text, inner)
    | st.dictionaries(tricky_text, inner).map(OrderedDict),
    max_leaves=25,
)


@settings(max_examples=150, deadline=None)
@given(json_docs)
@example([[1, 2], [3, 4, 5], [6, 7]])
@example(([1, True], (2, 3)))
@example([(1, [2]), (3, 4)])
@example([[], []])
def test_writer_equals_stdlib_indent_2(doc):
    assert dumps_indented(doc) == json.dumps(doc, indent=2)


@st.composite
def laurent_values(draw):
    """A Laurent value of rank 1..4 with or without the relation: odd
    doubled exponents, negative q powers and large coefficients included,
    and the zero polynomial whenever no terms are drawn or they cancel.
    Most terms share one of a few vectors, so most vectors carry several q
    powers."""
    ring = Ring(draw(st.integers(1, 4)), draw(st.booleans()))
    entry = st.integers(-5, 5) | st.integers(-(2**28), 2**28)
    power = st.integers(-4, 4) | st.integers(-(2**29), 2**29)
    coeff = st.integers(-3, 3) | st.integers(-(10**40), 10**40)
    vector = st.tuples(*[entry] * ring.n)
    shared = st.sampled_from(draw(st.lists(vector, min_size=1, max_size=3)))
    terms = draw(st.lists(st.tuples(shared | shared | vector, power, coeff), max_size=8))
    return ring.from_terms((vec, QPoly.term(e, c)) for vec, e, c in terms)


laurent_leaves = laurent_values().flatmap(
    lambda p: st.sampled_from([p, laurent_to_json(p), laurent_to_json(p, pretty=True)])
)
laurent_docs = st.recursive(
    json_leaves | laurent_leaves,
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.dictionaries(tricky_text, inner),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(laurent_docs)
@example(Ring(2, relation=True).zero())
@example([[{"lhs": Ring(1).zero()}]])
def test_writer_writes_laurent_values_as_the_oracle(doc):
    assert dumps_indented(doc) == json.dumps(doc, indent=2, default=laurent_terms)


@pytest.mark.parametrize("argv", COMMAND_LINES)
def test_stdout_is_stdlib_text_of_the_document(capsys, monkeypatch, argv):
    docs = []

    def spy(doc):
        docs.append(doc)
        return dumps_indented(doc)

    monkeypatch.setattr(cli, "dumps_indented", spy)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert len(docs) == 1
    assert out == json.dumps(docs[0], indent=2, default=laurent_terms) + "\n"


def old_fiber_doc(n, blocks, relation, pretty):
    """The ``fiber`` document as built before the bare scan: a
    SpinConfiguration per word, for the list and again for the character."""
    point = SpectrumPoint(blocks, n)
    configs = [list(s.prefix) for s in enumerate_fiber(point)]
    character = Ring(n, relation).from_terms((weight(s), 1) for s in enumerate_fiber(point))
    return {
        "n": n,
        "h": list(blocks),
        "size": len(configs),
        "configurations": configs,
        "character": laurent_to_json(character, pretty),
    }


def test_fiber_command_bytes_match_configuration_route(capsys):
    for n in (1, 2, 3):
        for size in range(6):
            for blocks in enumerate_Sp_N(size, n):
                if blocks and blocks[-1] == n:
                    continue
                for relation, pretty in ((False, False), (True, True)):
                    argv = ["fiber", "--n", str(n), "--h", ",".join(map(str, blocks))]
                    argv += ["--relation"] * relation + ["--pretty"] * pretty
                    code, out, _ = run(capsys, *argv)
                    assert code == 0
                    old = old_fiber_doc(n, blocks, relation, pretty)
                    assert out == json.dumps(old, indent=2, default=laurent_terms) + "\n", argv


def test_fiber_command_character_counts_its_configurations(capsys):
    # the listing is the word scan and the character the transfer-matrix
    # count: each document must agree with itself
    for n in (2, 3):
        for size in range(8):
            for blocks in enumerate_Sp_N(size, n):
                if blocks and blocks[-1] == n:
                    continue
                for relation in (False, True):
                    argv = ["fiber", "--n", str(n), "--h", ",".join(map(str, blocks))]
                    code, out, _ = run(capsys, *argv + ["--relation"] * relation)
                    assert code == 0
                    doc = json.loads(out)
                    configs = doc["configurations"]
                    assert doc["size"] == len(configs)
                    counted = Ring(n, relation).from_terms(
                        (tuple(2 * word.count(a) for a in range(1, n + 1)), 1)
                        for word in configs
                    )
                    assert laurent_from_json(doc["character"]) == counted, argv


@pytest.mark.parametrize("argv", [
    ("schur", "--shape", "1100", "--n", "1", "--method", "jt"),
    ("schur", "--shape", "1100", "--n", "1", "--relation", "--method", "jt"),
])
def test_input_too_deep_for_recursion_is_usage_error(capsys, argv):
    # these lines once ran one frame per column of the determinant and exited
    # 2 at the recursion limit; the determinant is now a loop over columns,
    # so no usage error is left to report: they answer x1^1100 at n = 1
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    poly = laurent_from_json(json.loads(out)["polynomial"])
    assert poly == Ring(1, "--relation" in argv).gen(1) ** 1100
    # and the same command at a small size still answers
    code, out, _ = run(capsys, *["3" if a == "1100" else a for a in argv])
    assert code == 0
    poly = laurent_from_json(json.loads(out)["polynomial"])
    assert poly == Ring(1, "--relation" in argv).gen(1) ** 3


def test_strip_routes_are_not_bounded_by_the_recursion_limit(capsys):
    # block lists come from an explicit stack, strip Schur functions from a
    # loop over prefixes and the configuration sum from one walk: 1100
    # single cells in a row is the strip <1,...,1>, x1^1100 at n = 1
    for relation in ((), ("--relation",)):
        argv = ("schur", "--shape", "1100", "--n", "1", "--method", "strip") + relation
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        poly = laurent_from_json(json.loads(out)["polynomial"])
        assert poly == Ring(1, bool(relation)).gen(1) ** 1100, argv
    code, out, err = run(capsys, "spectrum", "--n", "1", "--N", "1100")
    assert (code, err) == (0, "")
    points = json.loads(out)["points"]
    assert [(p["blocks"], p["fiber_size"]) for p in points] == [([1] * 1100, 1)]
    code, out, err = run(capsys, "verify", "polychronakos", "--n", "1", "--N", "1100")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert [c["equal"] for c in doc["checks"]] == [True, True]
    assert doc["equal"] is True
    # at n = 1 the level-1 strip search runs 1200 columns deep on its
    # explicit stack and emits only the empty strip, so the character is 1
    code, out, err = run(capsys, "decompose", "--n", "1", "--k", "0", "--order", "1200")
    assert (code, err) == (0, "")
    one = [{"x2": [0], "q": [[0, 1]]}]
    assert json.loads(out)["series"]["coefficients"] == [one] + [[]] * 1200
    code, out, err = run(capsys, "verify", "djkmo", "--n", "1", "--k", "0", "--order", "1200")
    assert (code, err) == (0, "")
    assert json.loads(out)["equal"] is True


def test_tableau_sum_is_not_bounded_by_the_recursion_limit(capsys):
    # the default method walks the cells without recursing: one row of
    # 1100 cells has the single filling 1...1, weight x1^1100
    code, out, err = run(capsys, "schur", "--shape", "1100", "--n", "1")
    assert (code, err) == (0, "")
    assert laurent_from_json(json.loads(out)["polynomial"]) == Ring(1).gen(1) ** 1100


def test_kostka_search_is_not_bounded_by_the_recursion_limit(capsys):
    # the column-prefix search runs on an explicit stack: lambda = (1100)
    # has the one strip of 1100 single cells, at t = 0 + 1 + ... + 1099
    code, out, err = run(capsys, "kostka", "--lambda", "1100")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["polynomial"] == [[604450, 1]]
    assert doc["strips"] == [{"kappa": "<" + ",".join(["1"] * 1100) + ">", "t": 604450, "count": 1}]
    assert doc["equal"] is True


@pytest.mark.parametrize("argv", [
    ("decompose", "--n", "3", "--k", "1", "--order", "1073741824"),
    ("verify", "djkmo", "--n", "3", "--k", "1", "--order", "1073741824"),
    ("twisted", "verify", "--n", "2", "--order", "1073741824"),
])
def test_order_outside_the_packed_range_is_usage_error(capsys, argv):
    # 2^30 is the first order whose q powers leave the packed q digit; the
    # check comes before any enumeration, so the call returns at once
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "outside the packed range" in json.loads(err)["error"]
    # and the same command at a small order still answers
    code, out, _ = run(capsys, *["3" if a == "1073741824" else a for a in argv])
    assert code == 0 and json.loads(out)


def test_closed_pipe_keeps_exit_code_and_prints_no_traceback():
    # about 529 KB of output, far beyond a pipe's buffer, so the command is
    # still writing when the reader closes its end after 100 bytes
    src = str(Path(ribbonchar.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.Popen(
        [sys.executable, "-m", "ribbonchar.cli", "spectrum", "--n", "2", "--N", "16"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err = proc.stderr.read().decode()
    finally:
        proc.kill()
        proc.stderr.close()
    assert "Traceback" not in err, err
    assert code == 0
