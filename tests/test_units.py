import numpy as np
import pytest

from rydsources.units import parse_quantity, UnitError


def test_lengths():
    assert parse_quantity("5 um", "length") == pytest.approx(5e-6)
    assert parse_quantity("780 nm", "length") == pytest.approx(780e-9)
    assert parse_quantity("1.06 um", "length") == pytest.approx(1.06e-6)


def test_frequencies_become_angular():
    assert parse_quantity("1 MHz", "frequency") == pytest.approx(2 * np.pi * 1e6)
    assert parse_quantity("6.8 GHz", "frequency") == pytest.approx(
        2 * np.pi * 6.8e9)


def test_other_kinds():
    assert parse_quantity("100 mW", "power") == pytest.approx(0.1)
    assert parse_quantity("30 uK", "temperature") == pytest.approx(30e-6)
    assert parse_quantity("40 us", "time") == pytest.approx(40e-6)
    assert parse_quantity("90 deg", "angle") == pytest.approx(np.pi / 2)


def test_negative_values_allowed():
    assert parse_quantity("-3 um", "length") == -3e-6
    assert parse_quantity("-5.8 GHz", "frequency") == pytest.approx(
        -2 * np.pi * 5.8e9)


@pytest.mark.parametrize("bad", ["5um", "5", "um 5", "5 parsec",
                                 "abc um", "5  um  extra"])
def test_malformed_rejected(bad):
    with pytest.raises(UnitError):
        parse_quantity(bad, "length")


@pytest.mark.parametrize("text, kind", [("inf um", "length"),
                                        ("nan MHz", "frequency"),
                                        ("1e400 um", "length")])
def test_non_finite_rejected(text, kind):
    with pytest.raises(UnitError):
        parse_quantity(text, kind)


def test_wrong_kind_unit_rejected():
    with pytest.raises(UnitError):
        parse_quantity("5 um", "frequency")
    with pytest.raises(UnitError):
        parse_quantity("5 MHz", "length")


def test_non_string_rejected():
    with pytest.raises(UnitError):
        parse_quantity(5e-6, "length")
