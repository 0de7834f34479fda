"""Fresh CLI outputs against the committed golden files in ``data/golden``.

The golden files are the README quick start (``run``, ``sweep-density
--ratios 1:10:10``, ``sweep-cost --ratios 1:3:9``) and ``validate --trials
1000 --seed 5``, with stdout of ``run`` and ``validate`` kept as
``run.txt`` and ``validate.txt``. To regenerate them after a change that
is meant to move a value, run from ``tests/data/golden``::

    mbsplan run --out . > run.txt && rm manifest.json
    mbsplan sweep-density --ratios 1:10:10 --out . > /dev/null
    mbsplan sweep-cost --ratios 1:3:9 --out . > /dev/null
    mbsplan validate --trials 1000 --seed 5 > validate.txt

and list every moved field in CHANGES.md.

Text, layout and integers must match exactly; floats match to 1e-12
relative, since numpy's SIMD math may differ in the last bits between
CPUs, or to 1e-12 of the file's largest float: a difference that is 0
in exact arithmetic comes out as 0.0 on one SIMD path and as a rounding
unit of its operands on another.
"""

import contextlib
import io
import math
import re
from pathlib import Path

import pytest

from mbsplan import cli

GOLDEN = Path(__file__).parent / "data" / "golden"
FLOAT_REL_TOL = 1e-12
_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")
_INTEGER = re.compile(r"[-+]?\d+")


def _assert_matches(fresh: str, golden: str, name: str) -> None:
    """Equal text outside numbers, equal integers, floats to FLOAT_REL_TOL
    relative or FLOAT_REL_TOL times the golden's largest |float|."""
    assert _NUMBER.split(fresh) == _NUMBER.split(golden), f"{name}: text differs"
    got, want = _NUMBER.findall(fresh), _NUMBER.findall(golden)
    assert len(got) == len(want), f"{name}: number count differs"
    floor = FLOAT_REL_TOL * max((abs(float(b)) for b in want if not _INTEGER.fullmatch(b)),
                                default=0.0)
    for k, (a, b) in enumerate(zip(got, want)):
        if _INTEGER.fullmatch(b):
            assert a == b, f"{name}: integer {k} is {a}, golden {b}"
        else:
            assert not _INTEGER.fullmatch(a), f"{name}: number {k} is {a}, golden float {b}"
            assert math.isclose(float(a), float(b), rel_tol=FLOAT_REL_TOL, abs_tol=floor), \
                f"{name}: float {k} is {a}, golden {b}"


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """Run the golden commands inside a fresh directory, as the
    regeneration recipe above does, keeping the stdout of two of them."""
    out = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(out)
        for name, argv in (
                ("run.txt", ["run", "--out", "."]),
                (None, ["sweep-density", "--ratios", "1:10:10", "--out", "."]),
                (None, ["sweep-cost", "--ratios", "1:3:9", "--out", "."]),
                ("validate.txt", ["validate", "--trials", "1000", "--seed", "5"])):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert cli.main(argv) == 0
            if name:
                (out / name).write_text(stdout.getvalue())
    return out


def test_golden_set_is_complete(fresh):
    names = sorted(p.name for p in GOLDEN.iterdir())
    assert names == ["demand.csv", "plan.json", "run.txt", "savings.json", "series.csv",
                     "sweep_cost.csv", "sweep_density.csv", "validate.txt"]
    assert sorted(p.name for p in fresh.iterdir()) == sorted(names + ["manifest.json"])


@pytest.mark.parametrize("name", ["demand.csv", "plan.json", "savings.json", "series.csv",
                                  "sweep_density.csv", "sweep_cost.csv", "run.txt",
                                  "validate.txt"])
def test_output_matches_golden(fresh, name):
    _assert_matches((fresh / name).read_text(), (GOLDEN / name).read_text(), name)


def test_comparison_catches_moved_values():
    _assert_matches("a,1,0.5\n", "a,1,0.5000000000001\n", "within tolerance")
    # dust below 1e-12 of the file's largest float, as a SIMD path leaves it
    _assert_matches("a,0.0,300.0\n", "a,2.8e-14,300.0\n", "within the floor")
    for fresh, golden in (("a,1,0.5\n", "a,1,0.50000001\n"),   # float moved
                          ("a,2,0.5\n", "a,1,0.5\n"),          # integer moved
                          ("a,1.0,0.5\n", "a,1,0.5\n"),        # integer became a float
                          ("b,1,0.5\n", "a,1,0.5\n"),          # text moved
                          ("a,1,0.5", "a,1,0.5\n"),            # layout moved
                          ("a,1,0.5,0\n", "a,1,0.5\n"),        # extra cell
                          ("a,0.0,300.0\n", "a,1e-9,300.0\n")):  # above the floor
        with pytest.raises(AssertionError):
            _assert_matches(fresh, golden, "moved")
