import ast
import dataclasses
import pathlib

import pytest

import vemaxwell
from vemaxwell.cases import ErrorReport, ManufacturedCase
from vemaxwell.derham import IncidenceOps
from vemaxwell.forms import CoefficientSet
from vemaxwell.geometry import BoxRule, QuadratureRule
from vemaxwell.linalg import SolutionSpace, SolveReport
from vemaxwell.mesh import PolyMesh, Ragged, SimplexSplit
from vemaxwell.stepper import RunResult, SimulationState, StepMonitor, StepOperators

SOURCES = sorted(pathlib.Path(vemaxwell.__file__).parent.glob("*.py"))


def test_every_export_resolves():
    missing = [name for name in vemaxwell.__all__ if not hasattr(vemaxwell, name)]
    assert missing == []


# Left out: ElementProjectors, whose face_tangential only the tests read,
# as the paper's face projector (acceptance criterion 3); and
# ValidationReport, which goes with validate_mesh (ROADMAP item 5).
@pytest.mark.parametrize("cls", [PolyMesh, SimplexSplit, Ragged, StepOperators,
                                 ManufacturedCase, QuadratureRule, BoxRule,
                                 SimulationState, IncidenceOps, SolutionSpace,
                                 SolveReport, CoefficientSet, ErrorReport,
                                 StepMonitor, RunResult])
def test_every_mesh_field_is_read(cls):
    # a field that only tests read does not belong in the package.  The
    # check matches attribute names, not owners: a field passes when any
    # class's attribute of that name is read, so it misses a field that
    # shares its name with one read elsewhere.
    read = {node.attr for path in SOURCES
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f.name for f in dataclasses.fields(cls) if f.name not in read]
    assert unread == []
