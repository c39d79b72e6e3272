"""Function codes: the I2O v2.0 ranges and their names."""

from __future__ import annotations

from repro.i2o import function_codes
from repro.i2o.function_codes import (
    EXEC_SYS_ENABLE,
    PRIVATE,
    UTIL_NOP,
    function_name,
)


def codes(prefix: str) -> list[int]:
    return [
        value for name, value in vars(function_codes).items()
        if name.startswith(prefix) and isinstance(value, int)
    ]


def test_utility_range():
    assert UTIL_NOP in codes("UTIL_")
    assert all(0x00 <= code < 0x20 for code in codes("UTIL_"))


def test_executive_range():
    assert EXEC_SYS_ENABLE in codes("EXEC_")
    assert all(0xA0 <= code < 0xF0 for code in codes("EXEC_"))


def test_private():
    assert PRIVATE == 0xFF


def test_function_name_known():
    assert function_name(UTIL_NOP) == "UTIL_NOP"
    assert function_name(PRIVATE) == "PRIVATE"
    assert function_name(EXEC_SYS_ENABLE) == "EXEC_SYS_ENABLE"


def test_function_name_unknown_is_hex():
    assert function_name(0x42) == "0x42"


def test_ranges_disjoint():
    # one name per code, or function_name would report the wrong one
    every = codes("UTIL_") + codes("EXEC_") + [PRIVATE]
    assert len(set(every)) == len(every)
