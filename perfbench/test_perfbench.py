"""Tests of the benchmark itself: the tail-percentile rule and the
correctness gate under injected faults."""
import json
from pathlib import Path

import pytest

import run
import workloads
from worker import load_program, run_checks

HERE = Path(__file__).resolve().parent


def test_tail_rank_leaves_exactly_ten_samples_beyond():
    assert run.tail_rank(100) == (90.0, 89)
    assert run.tail(list(range(1, 101))) == 90
    pct, idx = run.tail_rank(56)
    assert idx == 45 and pct == pytest.approx(100 * 46 / 56)
    assert run.tail_rank(11) == (100 / 11, 0)
    samples = [5, 1, 4, 2, 3] * 4
    assert run.tail(samples) == sorted(samples)[9]
    with pytest.raises(ValueError):
        run.tail_rank(10)


def _sample_checks():
    """Two fiber groups (fiber, schur enum/jt/strip) and two level-1 checks."""
    fibers = [c for c in workloads.fibers()
              if c.group in ("fiber n=2 h=1,1,1,1,1,1,1,1,1", "fiber n=3 h=2,3,2,1")]
    level1 = [c for c in workloads.level1()
              if c.key in ("verify djkmo --n 2 --k 0 --order 4", "twisted verify --n 1 --order 4")]
    assert len(fibers) == 8 and len(level1) == 2
    return fibers + level1


def _fail_ratio(checks):
    cli = load_program(HERE.parent / "src")
    records = run_checks([[c.argv, c.field] for c in checks], cli)
    digests = json.loads((HERE / "digests.json").read_text())
    return len(workloads.failures(checks, records, digests)) / len(checks)


def test_unpatched_program_passes():
    assert _fail_ratio(_sample_checks()) == 0


def _off_by_one(fn):
    def wrong(*args, **kwargs):
        value = fn(*args, **kwargs)
        return value + value.ring.one()
    return wrong


def _doubled(fn):
    def wrong(*args, **kwargs):
        value = fn(*args, **kwargs)
        return value + value
    return wrong


@pytest.mark.parametrize("module, name, fault", [
    ("spectra", "fiber_character", _off_by_one),  # caught by the group check
    ("schur", "schur_jacobi_trudi", _off_by_one),  # caught by the group check
    ("characters", "level1_theta", _doubled),  # caught by equal: false
])
def test_wrong_polynomial_makes_fail_ratio_positive(monkeypatch, module, name, fault):
    cli = load_program(HERE.parent / "src")
    mod = getattr(cli, module)
    monkeypatch.setattr(mod, name, fault(getattr(mod, name)))
    assert _fail_ratio(_sample_checks()) > 0
