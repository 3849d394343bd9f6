"""Test cases built from a loader's ``check_fields`` table, so that a field
added to a table is covered without another edit."""

from __future__ import annotations

import json

import pytest

from mathcontrast.datasets import REQUIRED
from mathcontrast.errors import SchemaError

# one value of each type that json.loads returns
JSON_VALUES = (None, 7, 1.5, True, "s", [], {})
# numbers that JSON can hold but a number field refuses
NOT_FINITE = (float("nan"), float("inf"), -float("inf"), 10**400)


def _accepts(kinds, value) -> bool:
    return type(value) in kinds or (type(value) is int and float in kinds)


def wrong_typed(table) -> list:
    """(field, value) for each field of ``table`` and each value of
    JSON_VALUES that the field does not accept."""
    return [
        pytest.param(name, value, id=f"{name}={json.dumps(value)}")
        for name, kinds, _default in table
        for value in JSON_VALUES
        if not _accepts(kinds, value)
    ]


def accepted(table) -> list:
    """(field, value) for each field of ``table`` and each value of
    JSON_VALUES that the field accepts."""
    return [
        pytest.param(name, value, id=f"{name}={json.dumps(value)}")
        for name, kinds, _default in table
        for value in JSON_VALUES
        if _accepts(kinds, value)
    ]


def not_finite(table) -> list:
    """(field, value) for each number field of ``table`` and each value
    of NOT_FINITE."""
    return [
        pytest.param(name, value, id=f"{name}={json.dumps(value)[:10]}")
        for name, kinds, _default in table
        if float in kinds
        for value in NOT_FINITE
    ]


def required(table) -> list[str]:
    """The fields of ``table`` that must be present."""
    return [name for name, _kinds, default in table if default is REQUIRED]


def field_names(table) -> list[str]:
    return [name for name, _kinds, _default in table]


def second_line_error(loader, path, good: dict, bad: dict) -> SchemaError:
    """The SchemaError that ``loader`` raises on a file holding ``good``
    and then ``bad``, one JSON line each; it must name line 2."""
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(SchemaError) as exc_info:
        loader(path)
    assert exc_info.value.line == 2
    return exc_info.value
