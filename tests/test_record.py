import copy
import importlib
import inspect
import pickle
import pkgutil

import pytest

import psmaca
from psmaca import ca, dataio, maca, pipeline

# every `record.checked` record, that is every class in psmaca that defines
# `_check`, with one set of fields it accepts
CHECKED = {
    "StateTransitionGraph": (ca.StateTransitionGraph, (1, (0, 1))),
    "TreeConfig": (maca.TreeConfig, ()),
    "ResponseFilter": (pipeline.ResponseFilter, ((1.0,),)),
    "PipelineConfig": (pipeline.PipelineConfig, ()),
    "ProteinRecord": (dataio.ProteinRecord, ("a", "MF", "HH")),
    "Dataset": (dataio.Dataset, ((),)),
}


def test_checked_lists_every_class_with_a_check():
    # a record that defines _check but is left out of CHECKED would skip
    # the tests below, which show that every path that builds one runs it
    found = set()
    for info in pkgutil.iter_modules(psmaca.__path__):
        module = importlib.import_module(f"psmaca.{info.name}")
        found |= {obj for obj in vars(module).values()
                  if isinstance(obj, type) and obj.__module__ == module.__name__
                  and "_check" in vars(obj)}
    assert found == {cls for cls, _ in CHECKED.values()}


@pytest.mark.parametrize("name", CHECKED)
def test_bad_arguments_name_the_public_class(name):
    cls, fields = CHECKED[name]
    cls(*fields)
    too_many = [*fields, *[None] * (len(cls._fields) + 1 - len(fields))]
    for call in (lambda: cls(*fields, bogus=1), lambda: cls(*too_many),
                 lambda: cls._make(too_many)):
        with pytest.raises(TypeError, match=rf"^{name}\.__new__\(\) ") as e:
            call()
        assert "Fields" not in str(e.value)
    # help() shows the record's fields, not (*args, **kwargs)
    params = inspect.signature(cls).parameters
    assert tuple(params) == cls._fields
    assert {key: p.default for key, p in params.items()
            if p.default is not p.empty} == cls._field_defaults


class Refused(Exception):
    pass


@pytest.mark.parametrize("name", CHECKED)
def test_every_path_that_builds_a_record_runs_its_check(name, monkeypatch):
    cls, fields = CHECKED[name]
    built = cls(*fields)

    def refuse(self):
        raise Refused

    monkeypatch.setattr(cls, "_check", refuse)
    for build in (lambda: cls(*fields), lambda: cls._make(built),
                  built._replace, lambda: copy.copy(built),
                  lambda: copy.deepcopy(built),
                  lambda: pickle.loads(pickle.dumps(built))):
        with pytest.raises(Refused):
            build()


@pytest.mark.parametrize("name", CHECKED)
def test_copy_and_pickle_give_an_equal_record(name):
    cls, fields = CHECKED[name]
    built = cls(*fields)
    for twin in (copy.copy(built), copy.deepcopy(built),
                 pickle.loads(pickle.dumps(built))):
        assert type(twin) is cls
        assert twin == built
