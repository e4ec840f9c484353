"""Start-up: what `import gchodge.cli` loads, and the `record` classes that
stand in for the engine's former dataclasses."""

import dataclasses
import subprocess
import sys

import pytest

from gchodge import cohomology, families, gkaehler, modelfile

from test_cli import _src_env

# every class that was a dataclass, by module
RECORDS = [
    cohomology.FrolicherReport, cohomology.DdbarReport,
    cohomology.HodgeReport, cohomology.MukaiQReport,
    cohomology.LefschetzReport, cohomology.MHSReport,
    families.FamilyReport, families.GraphReport, families.KSReport,
    families.QFlatReport, families.HolomorphyReport,
    families.SympFiltrationReport, families.GCYReport,
    families.TransversalityReport,
    gkaehler.BigradingReport, gkaehler.DeltaReport,
    gkaehler.BigradedCohomologyReport, gkaehler.SplitCheckReport,
    gkaehler.GKDeformationReport,
    modelfile.StructBlock, modelfile.ModelFile,
]


def reference(cls):
    """The same fields, in the same order, under the same name, built by
    stdlib dataclasses."""
    return dataclasses.dataclass(type(cls.__name__, (), {
        "__annotations__": dict(cls.__annotations__),
        "__qualname__": cls.__qualname__, "__module__": cls.__module__}))


def test_records_are_every_decorated_class():
    decorated = {obj for mod in (cohomology, families, gkaehler, modelfile)
                 for obj in vars(mod).values()
                 if isinstance(obj, type) and obj.__module__ == mod.__name__
                 and obj.__init__.__qualname__ == "record.<locals>.__init__"}
    assert decorated == set(RECORDS) and len(RECORDS) == 21


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_matches_dataclass(cls):
    ref = reference(cls)
    names = [f.name for f in dataclasses.fields(ref)]
    assert names == list(cls.__annotations__)
    # unhashable and nested values, as the reports hold
    values = [[k, {k: str(k)}] for k in range(len(names))]
    kw = dict(zip(names, values))
    first, rest = names[0], {n: kw[n] for n in names[1:]}
    for args, kwargs in [(values, {}), ([], kw), ([kw[first]], rest)]:
        ours, theirs = cls(*args, **kwargs), ref(*args, **kwargs)
        assert repr(ours) == repr(theirs)
        assert list(vars(ours).items()) == list(vars(theirs).items())

    other = values[:-1] + ["changed"]
    for x, y in [(values, values), (values, other), (other, values)]:
        assert (cls(*x) == cls(*y)) == (ref(*x) == ref(*y))
        assert (cls(*x) != cls(*y)) == (ref(*x) != ref(*y))
    for foreign in (tuple(values), values, ref(*values)):
        assert cls(*values) != foreign and not cls(*values) == foreign
    assert cls.__hash__ is None and ref.__hash__ is None

    for args, kwargs in [(values + [0], {}), (values[:-1], {}),
                         (values, {first: 0}), (values, {"bogus": 0})]:
        with pytest.raises(TypeError):
            ref(*args, **kwargs)
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_cli_import_loads_no_dataclasses_and_freezes_its_heap():
    probe = ("import gc, sys, gchodge.cli; "
             "print('dataclasses' in sys.modules, gc.get_freeze_count() > 0)")
    out = subprocess.run([sys.executable, "-c", probe], env=_src_env(),
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "True"]
