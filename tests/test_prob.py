import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from distdetect.errors import DistDetectError
from distdetect.prob import as_belief, gibbs_belief, kl_divergence


def simplexes(m_min=2, m_max=6):
    return (
        st.lists(st.floats(0.01, 1.0), min_size=m_min, max_size=m_max)
        .map(lambda xs: np.array(xs) / sum(xs))
    )


class TestValidation:
    def test_rejects_negative(self):
        with pytest.raises(DistDetectError, match="negative entry in belief"):
            as_belief([1.2, -0.2])

    def test_rejects_bad_sum(self):
        with pytest.raises(DistDetectError, match=r"belief sums to \S*1\.1\S*, not 1"):
            as_belief([0.5, 0.6])

    def test_accepts_exact(self):
        np.testing.assert_array_equal(as_belief([0.25, 0.75]), [0.25, 0.75])


class TestKL:
    def test_identical_is_zero(self):
        assert kl_divergence([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_delta_vs_uniform(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2))

    def test_hand_value(self):
        # 0.5*ln(0.5/0.25) + 0.5*ln(0.5/0.75)
        assert kl_divergence([0.5, 0.5], [0.25, 0.75]) == pytest.approx(
            0.14384103622589042, abs=1e-12
        )

    def test_absolute_continuity(self):
        with pytest.raises(DistDetectError, match="mu puts mass where pi is zero"):
            kl_divergence([0.5, 0.5], [1.0, 0.0])

    def test_zero_mass_terms_ignored(self):
        assert kl_divergence([0.0, 1.0], [0.5, 0.5]) == pytest.approx(math.log(2))

    @given(simplexes(), simplexes())
    def test_nonnegative(self, mu, pi):
        if mu.size != pi.size:
            return
        assert kl_divergence(mu, pi) >= 0.0

    @given(simplexes())
    def test_zero_iff_equal(self, mu):
        assert kl_divergence(mu, mu) <= 1e-12


class TestGibbs:
    def test_constant_potential_is_uniform(self):
        mu = gibbs_belief([7.3, 7.3, 7.3], eta=2.5)
        np.testing.assert_allclose(mu, 1 / 3, atol=1e-15)

    def test_small_example(self):
        np.testing.assert_allclose(
            gibbs_belief([0.0, math.log(2)], eta=1.0), [1 / 3, 2 / 3], atol=1e-15
        )

    def test_no_overflow_on_large_potentials(self):
        mu = gibbs_belief([1000.0, 1000.0 + math.log(3)], eta=1.0)
        np.testing.assert_allclose(mu, [0.25, 0.75], atol=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(DistDetectError, match="potential vector contains non-finite entries"):
            gibbs_belief([0.0, np.inf], eta=1.0)

    @given(
        st.lists(st.floats(-50, 50), min_size=2, max_size=5),
        st.floats(-100, 100),
        st.floats(0.01, 10),
    )
    def test_shift_invariance(self, phi, c, eta):
        phi = np.array(phi)
        np.testing.assert_allclose(
            gibbs_belief(phi + c, eta), gibbs_belief(phi, eta), atol=1e-12
        )
