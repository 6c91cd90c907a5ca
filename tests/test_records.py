"""The four result records: fields, reprs, immutability and `as_record`."""

import pytest

from stacksortlab import (ImageReport, VerificationReport, find_barred_3241,
                          trace_stack_sort)

_IMAGE = ImageReport(n=3, t=1, count=5, elements=None, wall_time=0.5)
_VERIFY = VerificationReport(claim="catalan", parameters={"n": 3},
                             expected=5, observed=5, passed=True)

# (record, field names in order, repr)
_RECORDS = (
    (trace_stack_sort((2, 1)), ("events", "output"),
     "StackTrace(events=(('push', 2), ('push', 1), ('pop', 1), ('pop', 2)),"
     " output=(1, 2))"),
    (find_barred_3241((4, 2, 3, 1)), ("positions", "values"),
     "BarredOccurrence(positions=(1, 2, 4), values=(4, 2, 1))"),
    (_IMAGE, ("n", "t", "count", "elements", "wall_time"),
     "ImageReport(n=3, t=1, count=5, elements=None, wall_time=0.5)"),
    (_VERIFY, ("claim", "parameters", "expected", "observed", "passed"),
     "VerificationReport(claim='catalan', parameters={'n': 3}, expected=5,"
     " observed=5, passed=True)"),
)


@pytest.mark.parametrize("record, fields, text", _RECORDS)
def test_record_fields_repr_and_immutability(record, fields, text):
    assert type(record)._fields == fields
    assert repr(record) == text
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    # a named tuple: iterable, and equal to the plain tuple of its values
    assert record == tuple(getattr(record, field) for field in fields)


def test_as_record_schemas():
    assert _IMAGE.as_record() == {"n": 3, "t": 1, "count": 5,
                                  "elements": None, "wall_time": 0.5}
    kept = ImageReport(n=3, t=1, count=2,
                       elements=frozenset({(2, 1, 3), (1, 2, 3)}),
                       wall_time=0.5)
    assert kept.as_record()["elements"] == ["1 2 3", "2 1 3"]
    record = _VERIFY.as_record()
    assert record == {"claim": "catalan", "parameters": {"n": 3},
                      "expected": 5, "observed": 5, "pass": True}
    assert record["parameters"] is not _VERIFY.parameters
