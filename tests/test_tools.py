"""Smoke tests of the scripts in tools/: each runs its work once on this
checkout, so that a rename in the package cannot break a tool unseen."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

import sdedisc
from sdedisc.bench import default_t_grid

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture
def load_tool(monkeypatch):
    """Import a script of tools/ by name; the BLAS thread variables and
    sys.path entries it sets are undone after the test."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))

    def load(name):
        spec = importlib.util.spec_from_file_location(
            f"tools_{name}", TOOLS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    return load


def test_pairtime_rows_run_once(load_tool):
    pairtime = load_tool("pairtime")
    rows = pairtime.rows(sdedisc)
    labels = [label for label, _ in rows]
    assert len(set(labels)) == len(labels)
    assert "vanloan f32 reports" in labels
    for _, call in rows:
        call()


def test_papercells_scores_one_system(load_tool):
    papercells = load_tool("papercells")
    grid = default_t_grid()
    cells = papercells.score(0, grid)
    assert len(cells) == len(grid)
    for cell in cells:
        err, non_psd = cell
        assert math.isfinite(err) and isinstance(non_psd, bool)


def test_srclines_total_is_the_sum_of_its_modules(load_tool, capsys):
    srclines = load_tool("srclines")
    srclines.main()
    *modules, total = capsys.readouterr().out.splitlines()
    counts = {name: int(count) for name, count in
              (line.split() for line in modules)}
    assert set(counts) == {p.name for p in srclines.SRC.glob("*.py")}
    assert total == f"total {sum(counts.values())}"
