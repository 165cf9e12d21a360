"""The strict/loose floor the simulator benchmarks hold each recorded rate to."""

import pytest

from benchmarks.bench_streaming_sim import _RECORDED_RATES, _guard_regression, rate_floor


def test_rate_floor_defaults_loose(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_STRICT", raising=False)
    assert rate_floor() == 0.60


def test_rate_floor_env_strict(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_STRICT", "1")
    assert rate_floor() == 0.95


def test_check_rate_boundaries(monkeypatch):
    # Exactly at the floor passes; just below fails and names the case.
    recorded = _RECORDED_RATES["tiny_chain"]
    monkeypatch.delenv("REPRO_BENCH_STRICT", raising=False)
    _guard_regression("tiny_chain", recorded * 0.60)
    with pytest.raises(AssertionError, match="tiny_chain: .* below 60%"):
        _guard_regression("tiny_chain", recorded * 0.599)
    monkeypatch.setenv("REPRO_BENCH_STRICT", "1")
    _guard_regression("tiny_chain", recorded * 0.95)
    with pytest.raises(AssertionError, match="below 95%"):
        _guard_regression("tiny_chain", recorded * 0.94)
    # A case with no recording runs unguarded, and says so.
    with pytest.warns(UserWarning, match="resnet18_224_leap"):
        _guard_regression("resnet18_224_leap", 1.0)


def test_unrecorded_case_marks_its_floor_skipped():
    assert "resnet18_224_leap" not in _RECORDED_RATES
    extra_info = {}
    with pytest.warns(UserWarning, match="resnet18_224_leap: no recorded rate"):
        _guard_regression("resnet18_224_leap", 1.0, extra_info)
    assert extra_info == {"rate_floor": "unrecorded"}
    # A recorded case passing its floor leaves extra_info alone.
    recorded = {}
    _guard_regression("tiny_chain", _RECORDED_RATES["tiny_chain"], recorded)
    assert recorded == {}
