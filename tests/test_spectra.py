import math

import pytest
from hypothesis import given, settings, strategies as st

from cjlab.spectra import (
    MAX_EIGENVALUE_COUNT,
    ConeSpec,
    indicial_data,
    link_eigenvalues,
    predicted_nu_bar,
    regime_of,
    solvability_window,
)

spec_mn = st.tuples(st.integers(2, 8), st.integers(2, 8))


def brute_force_eigenvalues(m, n, count):
    """Independent enumeration: product harmonics on the two sphere factors.

    Multiplicities from the classical dimension count dim H_l(S^{p}) =
    C(p+l, l) - C(p+l-2, l-2), written out directly.
    """
    N = m + n - 1

    def mult(l, ambient):
        p = ambient - 1
        if l == 0:
            return 1
        if l == 1:
            return ambient
        return math.comb(p + l, l) - math.comb(p + l - 2, l - 2)

    def lam(l, k):
        return (
            l * (l + m - 2) * (N - 1) / (m - 1)
            + k * (k + n - 2) * (N - 1) / (n - 1)
            - (N - 1)
        )

    vals = []
    for l in range(10):
        for k in range(10):
            # a mode contributes at most `count` entries to the head
            vals.extend([lam(l, k)] * min(mult(l, m) * mult(k, n), count))
    head = sorted(vals)[:count]
    assert head[-1] < min(lam(10, 0), lam(0, 10)), "oracle enumeration too short"
    return head


class TestConeSpec:
    def test_rejects_small_factors(self):
        with pytest.raises(ValueError):
            ConeSpec(1, 4)
        with pytest.raises(ValueError):
            ConeSpec(4, 1)

    @given(spec_mn)
    def test_dimension(self, mn):
        spec = ConeSpec(*mn)
        assert spec.N == mn[0] + mn[1] - 1
        assert spec.N >= 3


class TestLinkEigenvalues:
    def test_simons_cone_first_six(self):
        assert link_eigenvalues(ConeSpec(2, 2), 6) == [-2, 0, 0, 0, 0, 2]

    def test_high_dim_first_two(self):
        assert link_eigenvalues(ConeSpec(4, 4), 2) == [-6, 0]

    @given(spec_mn, st.integers(2, 40))
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_force(self, mn, count):
        spec = ConeSpec(*mn)
        assert link_eigenvalues(spec, count) == pytest.approx(
            brute_force_eigenvalues(*mn, count), abs=1e-12
        )

    @given(spec_mn)
    @settings(max_examples=40, deadline=None)
    def test_anchors(self, mn):
        spec = ConeSpec(*mn)
        vals = link_eigenvalues(spec, 8)
        assert vals[0] == -(spec.N - 1)
        assert vals[1] == 0.0
        assert vals == sorted(vals)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            link_eigenvalues(ConeSpec(2, 2), 1)
        assert len(link_eigenvalues(ConeSpec(2, 2), MAX_EIGENVALUE_COUNT)) == 10_000
        with pytest.raises(ValueError, match="count"):
            link_eigenvalues(ConeSpec(2, 2), MAX_EIGENVALUE_COUNT + 1)

    def test_huge_multiplicity_is_not_materialised(self):
        # the l = 0, k = 1 mode alone has multiplicity n = 1e20
        vals = link_eigenvalues(ConeSpec(2, 10**20), 12)
        assert len(vals) == 12 and vals == sorted(vals)


class TestIndicialData:
    def test_high_dim_example(self):
        spec = ConeSpec(4, 4)
        data = indicial_data(spec, link_eigenvalues(spec, 4))
        assert data.Lambda_re[0] == pytest.approx(0.5, abs=1e-14)
        assert data.indicial_roots[0] == pytest.approx((-3.0, -2.0), abs=1e-14)
        assert data.stable and data.j0 == 0

    def test_low_dim_example(self):
        spec = ConeSpec(2, 2)
        data = indicial_data(spec, link_eigenvalues(spec, 4))
        assert data.Lambda_re[0] == 0.0
        assert data.Lambda_im[0] == pytest.approx(math.sqrt(1.75), abs=1e-14)
        assert data.j0 == 1 and not data.stable

    @given(spec_mn)
    @settings(max_examples=40, deadline=None)
    def test_lambda1_value(self, mn):
        spec = ConeSpec(*mn)
        data = indicial_data(spec, link_eigenvalues(spec, 4))
        assert data.Lambda_re[1] == pytest.approx((spec.N - 2) / 2, abs=1e-13)

    @given(spec_mn)
    @settings(max_examples=40, deadline=None)
    def test_monotone_and_symmetric(self, mn):
        spec = ConeSpec(*mn)
        data = indicial_data(spec, link_eigenvalues(spec, 10))
        re = data.Lambda_re[data.j0 :]
        assert all(b >= a - 1e-13 for a, b in zip(re, re[1:]))
        centre = -(spec.N - 2) / 2
        for lo, hi in data.indicial_roots:
            assert lo + hi == pytest.approx(2 * centre, abs=1e-12)

    def test_json_keys(self):
        spec = ConeSpec(3, 3)
        payload = indicial_data(spec, link_eigenvalues(spec, 4))._asdict()
        assert set(payload) == {
            "lambdas", "Lambda_re", "Lambda_im", "indicial_roots", "j0", "stable",
        }

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            indicial_data(ConeSpec(2, 2), [0.0, -2.0])


def test_stability_boundary_brute_force():
    for m in range(2, 11):
        for n in range(2, 11):
            spec = ConeSpec(m, n)
            data = indicial_data(spec, link_eigenvalues(spec, 6))
            assert data.stable == (m + n >= 8), (m, n)


class TestPredictedNuBar:
    def test_values(self):
        assert predicted_nu_bar(ConeSpec(4, 4)) == pytest.approx(-2.0)
        assert predicted_nu_bar(ConeSpec(2, 2)) == pytest.approx(-0.5)
        assert predicted_nu_bar(ConeSpec(3, 3)) == pytest.approx(-1.5)

    @given(spec_mn)
    def test_regime_of(self, mn):
        assert regime_of(ConeSpec(*mn)) == ("high_dim" if sum(mn) >= 8 else "low_dim")


class TestSolvabilityWindow:
    def test_high_dim_admits_minus_one(self):
        win = solvability_window(ConeSpec(4, 4))
        assert win.lo == pytest.approx(-3.0)
        assert win.hi == pytest.approx(0.0)
        assert win.contains(-1.0)
        assert -2.0 in win.excluded and not win.contains(-2.0)

    def test_n4_excludes_minus_one(self):
        win = solvability_window(ConeSpec(2, 3))
        assert (win.lo, win.hi) == pytest.approx((-1.0, 0.0))
        assert not win.contains(-1.0)
        assert win.contains(-0.5)

    def test_n3_window(self):
        win = solvability_window(ConeSpec(2, 2))
        assert (win.lo, win.hi) == pytest.approx((-0.5, 0.0))
        assert win.contains(-0.25)

    def test_n5_admits_minus_one(self):
        assert solvability_window(ConeSpec(3, 3)).contains(-1.0)
