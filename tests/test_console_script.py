"""The subprocess runner of ``tests/console_script.py``, pointed at ``python -m liepoisson.cli`` on the source tree."""

import json
import sys
from pathlib import Path

import pytest

import console_script

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def failures():
    return []


@pytest.fixture
def liex(monkeypatch, failures):
    monkeypatch.setenv("PYTHONPATH", SRC)
    return console_script.subprocess_liex([sys.executable, "-m", "liepoisson.cli"], failures)


def test_an_expected_exit_returns_stdout(liex, failures, capsys):
    assert len(json.loads(liex(0, "catalog", "--order", "2"))) == 2
    assert failures == []
    assert capsys.readouterr().out == "exit 0: liex catalog --order 2\n"


def test_an_unexpected_exit_is_a_failure(liex, failures):
    liex(1, "catalog", "--order", "2")
    assert failures == ["liex catalog --order 2: exit 0, expected 1"]


def test_a_closed_reader_ends_liex_with_exit_1_and_nothing_on_stderr(liex, failures, capsys):
    assert liex(1, "catalog", "--order", "4", closed=True) == ""
    assert failures == []
    assert capsys.readouterr() == ("exit 1: liex catalog --order 4\n", "")
