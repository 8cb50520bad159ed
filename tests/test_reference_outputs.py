"""The model's outputs against the committed reference outputs.

Logits, losses, gradients, the metric log and the checkpoint bytes of every
case in ``reference_outputs.CASES`` are bitwise those of the committed file
on the platform that wrote it, and their summaries agree within 1e-12
relative on any platform. ``python tests/reference_outputs.py --write``
rewrites the file when a change moves numbers on purpose.
"""

import copy
import json

import pytest

import reference_outputs as ref

REL_TOL = 1e-12


@pytest.fixture(scope="module")
def committed():
    with open(ref.PATH, encoding="utf-8") as f:
        return json.load(f)


@pytest.fixture(scope="module")
def fresh():
    return ref.compute()


def test_file_covers_every_case(committed):
    assert sorted(committed["cases"]) == sorted(ref.CASES)


@pytest.mark.parametrize("case", ref.CASES)
def test_digests(committed, fresh, case):
    if committed["platform"] != ref.platform_key():
        pytest.skip(f"digests were written on {committed['platform']}, "
                    f"this is {ref.platform_key()}")
    assert fresh[case]["sha256"] == committed["cases"][case]["sha256"]


@pytest.mark.parametrize("case", ref.CASES)
def test_summaries(committed, fresh, case):
    want = ref.flat_summary(committed["cases"][case]["summary"])
    got = ref.flat_summary(fresh[case]["summary"])
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=REL_TOL, abs=0.0), key


def test_the_script_exits_1_when_a_digest_moves(committed, monkeypatch, capsys):
    """Without ``--write`` the script fails on a moved digest, on the platform
    the file was written on only."""
    cases = copy.deepcopy(committed["cases"])
    monkeypatch.setattr(ref, "compute", lambda: cases)
    monkeypatch.setattr(ref, "platform_key", lambda: committed["platform"])
    assert ref.main([]) == 0
    cases[ref.CASES[0]]["sha256"]["losses"] = "0" * 64
    assert ref.main([]) == 1
    assert "digests moved: losses" in capsys.readouterr().out
    monkeypatch.setattr(ref, "platform_key", lambda: {"numpy": "another"})
    assert ref.main([]) == 0


def test_a_nan_summary_prints_as_a_change(committed, monkeypatch, capsys):
    """``max`` drops a NaN, so a NaN summary once printed as no change."""
    cases = copy.deepcopy(committed["cases"])
    monkeypatch.setattr(ref, "compute", lambda: cases)
    summary = cases[ref.CASES[0]]["summary"]
    key = next(k for k, v in summary.items() if not isinstance(v, dict))
    summary[key] = float("nan")
    ref.main([])
    assert f"{ref.CASES[0]}: largest change nan abs, nan rel" in capsys.readouterr().out


def test_cpu_model_reads_the_model_name(tmp_path):
    info = tmp_path / "cpuinfo"
    info.write_text("processor\t: 0\nvendor_id\t: X\nmodel name\t: Some CPU @ 2.00GHz\n\n"
                    "processor\t: 1\nmodel name\t: Some CPU @ 2.00GHz\n")
    assert ref.cpu_model(str(info)) == "Some CPU @ 2.00GHz"
    info.write_text("processor\t: 0\nCPU part\t: 0xd0c\n")
    assert ref.cpu_model(str(info)) == "unknown"
    assert ref.cpu_model(str(tmp_path / "missing")) == "unknown"


def test_another_cpu_model_skips_the_digests(committed, monkeypatch, capsys):
    """The platform key holds the CPU model: on another model a moved digest
    is reported, not failed."""
    cases = copy.deepcopy(committed["cases"])
    cases[ref.CASES[0]]["sha256"]["losses"] = "0" * 64
    monkeypatch.setattr(ref, "compute", lambda: cases)
    monkeypatch.setattr(ref, "platform_key",
                        lambda: {**committed["platform"], "cpu_model": "another"})
    assert "cpu_model" in committed["platform"]
    assert ref.main([]) == 0
    assert "not checked" in capsys.readouterr().out
