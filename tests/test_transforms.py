"""Transform-layer tests: the six exponent families and their pole semantics,
the Esscher zero, and the Lamperti / censoring path surgeries."""

import mpmath
import numpy as np
import pytest
from scipy import special

from artifact import (
    ExponentKind,
    InconsistentRhoError,
    LevyExponent,
    OutOfRangeError,
    PoleHitError,
    StableParams,
    censor_positive,
    esscher_zero_check,
    lamperti_forward,
    lamperti_inverse,
    sample_path,
)
from artifact.transforms import mean_at_one


# ---------------------------------------------------------------------------
# the six exponent families


def _admissible(kind):
    # a representative admissible parameter set per family
    if kind is ExponentKind.RADIAL:
        return StableParams(1.5, 0.5)
    if kind is ExponentKind.DAGGER_SPEC_POS or kind is ExponentKind.HAT_UPARROW:
        a = 1.5
        return StableParams(a, 1.0 - 1.0 / a)
    if kind is ExponentKind.CENSORED_CIRC:
        return StableParams(1.5, 0.5)
    return StableParams(1.5, 0.5)


@pytest.mark.parametrize("kind", list(ExponentKind))
def test_exponent_vanishes_at_zero(kind):
    e = LevyExponent(_admissible(kind), kind)
    assert abs(e.eval(0.0)) <= 1e-12


@pytest.mark.parametrize("kind", [ExponentKind.CENSORED, ExponentKind.COND_POSITIVE])
def test_exponent_hermitian_symmetry(kind):
    e = LevyExponent(_admissible(kind), kind)
    for z in (0.3, 1.1, 4.0):
        assert e.eval(-z) == pytest.approx(np.conj(e.eval(z)), rel=1e-10)


def test_hat_uparrow_is_reflected_dagger():
    a = 1.5
    p = StableParams(a, 1.0 - 1.0 / a)
    dag = LevyExponent(p, ExponentKind.DAGGER_SPEC_POS)
    hat = LevyExponent(p, ExponentKind.HAT_UPARROW)
    for z in (0.5, -1.3, 2.0 + 0.3j):
        assert hat.eval(z) == pytest.approx(dag.eval(-z), rel=1e-12)


def test_dagger_and_hat_means():
    a = 1.5
    p = StableParams(a, 1.0 - 1.0 / a)
    g = special.gamma(a)
    assert mean_at_one(LevyExponent(p, ExponentKind.DAGGER_SPEC_POS)) == pytest.approx(-g, rel=1e-12)
    assert mean_at_one(LevyExponent(p, ExponentKind.HAT_UPARROW)) == pytest.approx(+g, rel=1e-12)


def test_radial_requires_symmetry():
    with pytest.raises(InconsistentRhoError):
        LevyExponent(StableParams(1.2, 0.55), ExponentKind.RADIAL)


def test_censored_circ_requires_alpha_above_one():
    with pytest.raises(OutOfRangeError):
        LevyExponent(StableParams(0.7, 0.5), ExponentKind.CENSORED_CIRC)


def test_censored_closed_form_cross_check():
    # Psi(z) with w = -iz: Gamma(a+w) Gamma(1-a-w) / (Gamma(w) Gamma(1-alpha-w))
    p = StableParams(1.5, 0.5)
    a = p.alpha * p.rho
    e = LevyExponent(p, ExponentKind.CENSORED)
    for z in (0.7, 1.9):
        w = -1j * z
        want = complex(
            mpmath.gamma(a + w) * mpmath.gamma(1 - a - w)
            / (mpmath.gamma(w) * mpmath.gamma(1 - p.alpha - w))
        )
        assert e.eval(z) == pytest.approx(want, rel=1e-11)


def test_numerator_pole_raises():
    p = StableParams(1.5, 0.5)
    a = p.alpha * p.rho
    e = LevyExponent(p, ExponentKind.CENSORED)
    # w = 1 - a makes Gamma(1 - a - w) = Gamma(0): z = i (1 - a)
    with pytest.raises(PoleHitError):
        e.eval(1j * (1.0 - a))


def test_denominator_pole_gives_exact_zero():
    p = StableParams(1.5, 0.5)
    e = LevyExponent(p, ExponentKind.CENSORED)
    # w = 1 - alpha makes Gamma(1 - alpha - w) = Gamma(0) in the denominator
    assert e.eval(1j * (1.0 - p.alpha)) == 0.0


def test_exponent_eval_helper_vectorizes():
    e = LevyExponent(StableParams(1.5, 0.5), ExponentKind.CENSORED)
    zs = np.array([0.3, 0.9, 2.0])
    out = e.eval(zs)
    assert out.shape == zs.shape
    assert out[1] == pytest.approx(e.eval(0.9), rel=1e-14)


# ---------------------------------------------------------------------------
# Esscher zero


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
def test_esscher_zero_on_symmetric_base(alpha):
    assert esscher_zero_check(StableParams(alpha, 0.5)) <= 1e-10


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
def test_esscher_nonzero_off_the_tilt_point(alpha):
    p = StableParams(alpha, 0.5)
    off = esscher_zero_check(p, at=-1j * (alpha - 1.0) * 0.5)
    assert off > 1e-3


# ---------------------------------------------------------------------------
# Lamperti and censoring path surgeries


def test_lamperti_round_trip():
    p = StableParams(1.5, 0.5)
    xi = sample_path(p, 0.0, 1.0, step=1e-3, rng=21)
    x = lamperti_forward(xi, alpha=p.alpha)
    assert np.all(x.values > 0)
    back = lamperti_inverse(x, alpha=p.alpha)
    np.testing.assert_allclose(back.values, xi.values, atol=1e-12)
    np.testing.assert_allclose(back.times, xi.times, atol=1e-3)


def test_lamperti_inverse_rejects_nonpositive():
    from artifact.transforms import NonPositivePathError
    from artifact import Path

    bad = Path(np.array([0.0, 1.0]), np.array([1.0, -2.0]))
    with pytest.raises(NonPositivePathError):
        lamperti_inverse(bad, alpha=1.5)


def test_censor_positive_erases_negative_excursions():
    p = StableParams(1.5, 0.5)
    x = sample_path(p, 1.0, 2.0, step=1e-3, rng=4)
    c = censor_positive(x)
    assert np.all(c.values >= 0)
    assert np.all(np.diff(c.times) >= 0)
    # the surviving samples are exactly the nonnegative originals, in order
    kept = x.values[x.values >= 0]
    np.testing.assert_array_equal(np.sort(c.values), np.sort(kept))
    # gaps closed: censored clock is total time spent nonnegative
    assert c.times[-1] <= x.times[-1]


def test_censor_positive_idempotent():
    p = StableParams(1.5, 0.5)
    x = sample_path(p, 1.0, 2.0, step=1e-3, rng=4)
    c1 = censor_positive(x)
    c2 = censor_positive(c1)
    np.testing.assert_array_equal(c1.times, c2.times)
    np.testing.assert_array_equal(c1.values, c2.values)
