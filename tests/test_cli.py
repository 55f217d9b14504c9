import io
import json
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ribbonchar import characters
from ribbonchar.cli import main
from ribbonchar.polyring import build_qseries, laurent_from_json
from ribbonchar.shapes import BorderStrip


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
