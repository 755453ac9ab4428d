from dataclasses import fields

import numpy as np
import pytest

from fmtt import InterpolantSchedule, ScheduleDomainError


def test_linear_boundary_values():
    s = InterpolantSchedule.linear()
    assert s.alpha(0.0) == 1.0 and s.alpha(1.0) == 0.0
    assert s.beta(0.0) == 0.0 and s.beta(1.0) == 1.0


def test_eta_zero_offset():
    s = InterpolantSchedule.linear()
    assert s.eta(0.25) == pytest.approx(3.0, abs=1e-12)
    assert s.eta(1.0) == 0.0


def test_eta_with_offset():
    s = InterpolantSchedule.linear(eta_offset=0.05)
    assert s.eta(0.25) == pytest.approx(1.05 * 0.75 / 0.30, abs=1e-12)
    assert s.eta(0.0) == pytest.approx(1.0 / 0.05 + 1.0, abs=1e-12)


def test_eta_domain_error_at_zero():
    s = InterpolantSchedule.linear()
    with pytest.raises(ScheduleDomainError):
        s.eta(0.0)


def test_epsilon_variants():
    assert InterpolantSchedule.linear(epsilon="zero").epsilon(0.3) == 0.0
    assert InterpolantSchedule.linear(epsilon=0.7).epsilon(0.3) == 0.7
    assert InterpolantSchedule.linear(epsilon=lambda t: t * t).epsilon(0.5) == 0.25
    with pytest.raises(ValueError):
        InterpolantSchedule.linear(epsilon=-1.0)


def test_negative_epsilon_rejected_at_eval():
    s = InterpolantSchedule.linear(epsilon=lambda t: -t)
    with pytest.raises(ValueError):
        s.checked_epsilon(0.5)


def test_negative_offset_rejected():
    with pytest.raises(ValueError):
        InterpolantSchedule.linear(eta_offset=-0.01)


def test_interpolant_is_fixed():
    # Only epsilon and eta_offset are settable, so no coefficient can make
    # the velocity stop transporting the density.
    assert [f.name for f in fields(InterpolantSchedule)] == ["epsilon", "eta_offset"]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, True, "0.1"])
def test_constant_epsilon_and_offset_must_be_finite_numbers(value):
    with pytest.raises(ValueError):
        InterpolantSchedule(eta_offset=value)
    with pytest.raises(ValueError):
        InterpolantSchedule.linear(epsilon=value)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_epsilon_rejected_at_eval(value):
    s = InterpolantSchedule.linear(epsilon=lambda t: value)
    with pytest.raises(ValueError, match="not finite"):
        s.checked_epsilon(0.5)
