import io
import json
import os
import subprocess
import sys
from collections import OrderedDict
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ribbonchar
from ribbonchar import characters, cli
from ribbonchar.cli import dumps_indented, laurent_to_json, main
from ribbonchar.polyring import QPoly, Ring, build_qseries, laurent_from_json, qpoly_from_json
from ribbonchar.shapes import BorderStrip, Partition
from ribbonchar.spectra import SpectrumPoint, enumerate_Sp_N, enumerate_fiber, weight


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kostka_command(capsys):
    code, out, _ = run(capsys, "kostka", "--lambda", "3,2,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["polynomial"] == [
        [4, 1], [5, 2], [6, 2], [7, 3], [8, 3], [9, 2], [10, 2], [11, 1]
    ]
    assert doc["strip_count"] == 14
    assert doc["equal"] is True


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


def test_verify_djkmo_reports_first_mismatch(capsys, monkeypatch):
    # a theta with one extra monomial x_1 q^(offset + 2) must fail both
    # checks there, and the report must show that monomial and nothing else
    real_theta = characters.level1_theta

    def faulty_theta(n, k, order):
        theta = real_theta(n, k, order)
        extra = [(theta.offset + 2, theta.ring.gen(1))]
        return theta + build_qseries(theta.ring, theta.offset, order, extra)

    monkeypatch.setattr(characters, "level1_theta", faulty_theta)
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


# strings built from the fragments an encoder can get wrong
tricky_text = st.lists(
    st.sampled_from(
        ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "中", "\U0001f600",
         "[", "]", "{", "}", ",", " ", ":", '", "', "a"]
    )
).map("".join) | st.text()
json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**40), 10**40)
    | st.floats()
    | tricky_text
    | st.lists(st.integers(-(10**30), 10**30))
    | st.lists(st.integers(-3, 3) | st.booleans())
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
def test_writer_equals_stdlib_indent_2(doc):
    assert dumps_indented(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("argv", [
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
])
def test_stdout_is_stdlib_text_of_the_document(capsys, monkeypatch, argv):
    docs = []

    def spy(doc):
        docs.append(doc)
        return dumps_indented(doc)

    monkeypatch.setattr(cli, "dumps_indented", spy)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert len(docs) == 1
    assert out == json.dumps(docs[0], indent=2) + "\n"


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
                    assert out == json.dumps(old, indent=2) + "\n", argv


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
