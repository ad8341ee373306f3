"""Float range has two owners: ``errors.require_number`` reads every outside
number, saturating it to +inf past float range, and ``bounds._pow`` takes
every power of the bound calculators.

The first tests pin what the two owners give at the edge of float range; a
lint over the package's source keeps the conversion and the saturation from
being written out again anywhere else.
"""

import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from radon_machine import ComplexityParams, boosted_confidence, efficiency_report
from radon_machine.errors import require_number

SRC = Path(__file__).resolve().parent.parent / "src" / "radon_machine"


def test_require_number_returns_the_value_read():
    assert require_number(10**400, "f") == math.inf
    assert require_number(3, "f") == 3.0 and type(require_number(3, "f")) is float
    assert require_number(7, "f", integer=True) == 7
    assert type(require_number(np.int64(7), "f", integer=True)) is int


def test_m_sequential_approx_past_float_range_is_finite():
    # 2^1024 alone passes float range, but 2^1024 * 1e-200 is about 1.8e108.
    report = efficiency_report(ComplexityParams(1e-200, 0.0, 1, 1), 4, 0.125, 1024, 1)
    expected = float(Fraction(2**1024) * Fraction(1e-200))
    assert math.isclose(report.m_sequential_approx, expected, rel_tol=1e-12)


def test_boosted_delta_is_finite_below_log2_1024():
    # A vacuous bound whose log2 lies in (1023, 1024) is still a finite float.
    boosted = boosted_confidence(4, 0.4999, 10)
    assert boosted.vacuous
    assert math.isclose(boosted.log2_delta, 1023.70, abs_tol=0.01)
    assert math.isfinite(boosted.delta)
    assert boosted.delta == 2.0**boosted.log2_delta


def _float_range_sites(path: Path) -> list[str]:
    """``file:line`` of each name ``_as_float`` outside errors and bounds,
    and of each ``**`` with a float literal on its left in bounds."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        name = getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))
        if name == "_as_float" and path.name not in ("errors.py", "bounds.py"):
            found.append(f"{path.name}:{node.lineno}")
        if (
            path.name == "bounds.py"
            and isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Pow)
            and isinstance(node.left, ast.Constant)
            and isinstance(node.left.value, float)
        ):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_float_range_has_two_owners():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    assert [site for path in sources for site in _float_range_sites(path)] == []
