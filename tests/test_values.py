"""The value classes: immutable after construction, owners of their arrays, cheap to import.

The metric, the algebra, the structure, the connection and curvature
tables, the soliton data, the geometry and each report entry derive from
``report.Frozen``: assigning or deleting an attribute raises AttributeError,
while cached properties still fill.  ``VerificationReport`` stays mutable.
A constructor freezes a copy of an array it is given, never the caller's
own.  The classes are plain classes, so importing the command line generates
no code: ``dataclasses`` is not loaded, and neither is the dense oracle.
"""

import subprocess
import sys

import numpy as np
import pytest

from spin7.connection import CurvatureTensor, FrameConnection
from spin7.corpus import get_algebra
from spin7.forms import IDENTITY_METRIC, FrameMetric
from spin7.geometry import Geometry, SolitonData
from spin7.report import CheckEntry, entry
from spin7.structure import Spin7Form, canonical_phi_form


def values():
    """(value, one of its fields) for every frozen class; an algebra from in_frame included."""
    su3 = get_algebra("su3")
    structure = Spin7Form(canonical_phi_form(), IDENTITY_METRIC)
    geom = Geometry.build(su3, structure)
    return [
        (FrameMetric(2.0 * np.eye(8), -1), "g"),
        (entry("x", "anchor", 0.5, 1.0), "residual"),
        (CheckEntry("y", "anchor", 0.0, 0.0, None, True), "passed"),
        (su3, "c"),
        (su3.in_frame(2.0 * np.eye(8)), "jacobi"),
        (structure, "phi"),
        (geom.conn, "gamma"),
        (geom.curv, "R"),
        (SolitonData.constant_potential(), "f_gradient"),
        (geom, "t3"),
    ]


@pytest.mark.parametrize("value,field", [pytest.param(v, f, id=f"{type(v).__name__}.{f}")
                                         for v, f in values()])
def test_fields_cannot_be_assigned_or_deleted(value, field):
    before = getattr(value, field)
    with pytest.raises(AttributeError, match=f"frozen {type(value).__name__}"):
        setattr(value, field, None)
    with pytest.raises(AttributeError, match=f"frozen {type(value).__name__}"):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.not_a_field = 1.0
    assert getattr(value, field) is before
    assert not hasattr(value, "not_a_field")


def test_cached_properties_fill_once():
    metric = FrameMetric(np.diag(np.arange(1.0, 9.0)))
    structure = Spin7Form(canonical_phi_form(), IDENTITY_METRIC)
    geom = Geometry.build(get_algebra("su2su2u1u1"), structure)
    for value, name in ((metric, "inv"), (structure, "dense"), (geom, "dtorsion")):
        assert name not in vars(value)
        first = getattr(value, name)
        assert vars(value)[name] is first and getattr(value, name) is first
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    assert np.array_equal(metric.inv, np.diag(1.0 / np.arange(1.0, 9.0)))


@pytest.mark.parametrize("make,shape,field", [
    (SolitonData, (8,), "f_gradient"),
    (FrameConnection, (8, 8, 8), "gamma"),
    (CurvatureTensor, (8, 8, 8, 8), "R"),
], ids=["SolitonData", "FrameConnection", "CurvatureTensor"])
def test_a_constructor_freezes_a_copy_not_the_callers_array(make, shape, field):
    given = np.zeros(shape)
    stored = getattr(make(given), field)
    assert given.flags.writeable
    assert not stored.flags.writeable
    given[(0,) * len(shape)] = 1.0
    assert not np.any(stored)


def test_importing_the_command_line_loads_no_dataclasses_and_no_dense_oracle():
    probe = "import sys; {}; print('dataclasses' in sys.modules, 'spin7.dense' in sys.modules)"

    def loaded(statement):
        out = subprocess.run([sys.executable, "-c", probe.format(statement)], check=True,
                             capture_output=True, text=True).stdout.split()
        return [word == "True" for word in out]

    # some numpy releases import dataclasses themselves; spin7 then cannot be told apart
    numpy_loads_dataclasses = loaded("import numpy")[0]
    dataclasses_loaded, dense_loaded = loaded("import spin7.cli")
    assert not dense_loaded
    assert numpy_loads_dataclasses or not dataclasses_loaded
