"""The value classes: immutable after construction, owners of their arrays, cheap to import.

The metric, the k-forms, the algebra, the structure, the soliton data, the
geometry, each report entry and each report derive from ``report.Frozen``:
assigning or deleting an attribute raises AttributeError, while the
properties of ``report.cached`` still fill.  A report's entries are a
tuple, replaced only by ``add`` and ``extend``.  A constructor freezes a
copy of an array it is given, never the caller's own.  The geometry's torsion
connection and curvature are plain arrays that ``Geometry.build`` makes
itself and freezes in place; the Levi-Civita ones are the algebra's, shared
read-only by every geometry on it.  The cached tables, and each form's dense
table ``KForm.dense``, are frozen as they fill.  The classes are plain
classes, so importing the command line generates no code: ``dataclasses``
is not loaded, and neither is the dense oracle, nor argparse or
importlib.resources.
"""

import subprocess
import sys
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest

import spin7
from spin7.checks import full_report
from spin7.corpus import VERIFY_TARGETS, build_geometry, geometry_id, get_algebra
from spin7.forms import IDENTITY_METRIC, FrameMetric, KForm
from spin7.geometry import Geometry, SolitonData
from spin7.report import CheckEntry, Frozen, VerificationReport, cached, entry
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
        (canonical_phi_form(), "degree"),
        (KForm.covector(range(8)), "vec"),
        (SolitonData.constant_potential(), "f_gradient"),
        (geom, "conn"),
        (VerificationReport("g"), "geometry_id"),
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
    for value, name in ((metric, "inv"), (structure.phi, "dense"),
                        (structure, "derivation_matrix"), (geom, "dtorsion")):
        assert name not in vars(value)
        first = getattr(value, name)
        assert vars(value)[name] is first and getattr(value, name) is first
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    assert np.array_equal(metric.inv, np.diag(1.0 / np.arange(1.0, 9.0)))


def test_the_caching_descriptor_builds_once_and_stores_in_the_instance_dict():
    builds = []

    class Value(Frozen):
        @cached
        def table(self):
            """A table built on first read."""
            builds.append(self)
            if len(builds) == 1:
                raise ValueError("first build fails")
            return np.arange(3.0)

    assert isinstance(vars(Value)["table"], cached) and Value.table.__doc__.startswith("A table")
    value = Value()
    with pytest.raises(ValueError, match="first build fails"):
        value.table
    assert "table" not in vars(value)  # an exception caches nothing
    first = value.table
    assert vars(value)["table"] is first and value.table is first and len(builds) == 2
    assert not first.flags.writeable  # every later read shares it
    with pytest.raises(AttributeError, match="frozen Value"):
        value.table = None
    with pytest.raises(AttributeError, match="frozen Value"):
        del value.table
    assert value.table is first and len(builds) == 2


@pytest.mark.parametrize("degree", range(5))
def test_a_forms_dense_table_is_built_once_and_read_only(degree):
    # to_array() builds every table and stays a fresh, writable copy for callers; the
    # package reads tables up to degree 4 (a degree-8 table holds 8^8 floats, 134 MB)
    form = KForm.from_vector(degree, np.arange(1.0, 1.0 + len(KForm.zero(degree).vec)))
    dense = form.dense
    assert form.dense is dense and not dense.flags.writeable
    with pytest.raises(ValueError):
        dense.flat[0] = 1.0
    fresh = form.to_array()
    assert fresh is not dense and fresh.flags.writeable
    assert fresh.tobytes() == dense.tobytes() and fresh.shape == dense.shape == (8,) * degree


@pytest.mark.parametrize("make,shape,field", [
    (SolitonData, (8,), "f_gradient"),
    (lambda vec: KForm.from_vector(1, vec), (8,), "vec"),
], ids=["SolitonData", "KForm"])
def test_a_constructor_freezes_a_copy_not_the_callers_array(make, shape, field):
    given = np.zeros(shape)
    stored = getattr(make(given), field)
    assert given.flags.writeable
    assert not stored.flags.writeable
    given[(0,) * len(shape)] = 1.0
    assert not np.any(stored)


def unfrozen(value, path: str) -> list[str]:
    """Where below value an array is writable, a field assignable, or a value of no known kind.

    Walks a Frozen value's fields and filled cached properties, tuples, the
    read-only maps of KForm.coeffs and the private ``_cache`` dicts that fill
    on first use; numbers, strings and None are immutable.
    """
    if isinstance(value, np.ndarray):
        return [path] if value.flags.writeable else []
    if isinstance(value, (str, int, float, type(None), np.generic)):
        return []
    if isinstance(value, tuple):
        return [p for i, x in enumerate(value) for p in unfrozen(x, f"{path}[{i}]")]
    if isinstance(value, MappingProxyType):
        return [p for k, x in value.items() for p in unfrozen(x, f"{path}[{k!r}]")]
    if not isinstance(value, Frozen):
        return [f"{path}: {type(value).__name__}"]
    found = []
    for name, field in vars(value).items():
        try:
            setattr(value, name, field)
            found.append(f"{path}.{name}: assignable")
        except AttributeError:
            pass
        if name.startswith("_") and type(field) is dict:  # a private cache: walk what it holds
            field = MappingProxyType(field)
        found += unfrozen(field, f"{path}.{name}")
    return found


@pytest.mark.parametrize("target", [*VERIFY_TARGETS, ("heisenberg", "canonical", None)],
                         ids=lambda t: geometry_id(*t))
def test_a_reported_geometry_holds_nothing_mutable(target):
    geom = build_geometry(*target)
    full_report(geom)
    filled = [name for name, attr in vars(Geometry).items() if isinstance(attr, cached)]
    assert len(filled) >= 20  # the descriptor's attributes are found: 22 today
    assert [name for name in filled if name not in vars(geom)] == []
    assert unfrozen(geom, "geom") == []
    for name in ("lc", "conn", "curv", "curv_lc"):
        assert getattr(geom, name).shape == (8,) * (4 if name.startswith("curv") else 3)


def test_importing_the_command_line_loads_no_dataclasses_argparse_resources_or_dense_oracle():
    modules = ("dataclasses", "spin7.dense", "argparse", "gettext", "importlib.resources")
    probe = "import sys; {}; print(*(m in sys.modules for m in %r))" % (modules,)

    def loaded(statement, *flags):
        out = subprocess.run([sys.executable, *flags, "-c", probe.format(statement)], check=True,
                             capture_output=True, text=True).stdout.split()
        return dict(zip(modules, (word == "True" for word in out)))

    # some numpy releases import dataclasses themselves; spin7 then cannot be told apart
    numpy_loads_dataclasses = loaded("import numpy")["dataclasses"]
    cli = loaded("import spin7.cli")
    assert not (cli["spin7.dense"] or cli["argparse"] or cli["gettext"])
    assert numpy_loads_dataclasses or not cli["dataclasses"]
    # a .pth file run by site may import importlib.resources before spin7 does: -S runs none,
    # with spin7's and numpy's directories put on sys.path by hand
    roots = [str(Path(m.__file__).parents[1]) for m in (spin7, np)]
    on_path = f"sys.path[:0] = [{roots[0]!r}]; sys.path.append({roots[1]!r})"
    numpy_loads_resources = loaded(f"{on_path}; import numpy", "-S")["importlib.resources"]
    cli = loaded(f"{on_path}; import spin7.cli", "-S")
    assert numpy_loads_resources or not cli["importlib.resources"]
