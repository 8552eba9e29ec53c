import pytest

from psmaca import ca, dataio, maca, pipeline

# every Checked record, with one set of fields it accepts
CHECKED = {
    "StateTransitionGraph": (ca.StateTransitionGraph, (1, (0, 1))),
    "TreeConfig": (maca.TreeConfig, ()),
    "ResponseFilter": (pipeline.ResponseFilter, ((1.0,),)),
    "PipelineConfig": (pipeline.PipelineConfig, ()),
    "ProteinRecord": (dataio.ProteinRecord, ("a", "MF", "HH")),
    "Dataset": (dataio.Dataset, ((),)),
}


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
