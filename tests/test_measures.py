"""Discrete measures, model catalog, and transport distances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.hermite import hermgauss

import robustfolio as rf
from robustfolio import ConfigError, measures
from robustfolio.measures import _quantile_coupling_segments

from conftest import random_measure

INF = rf.WassersteinOrder(math.inf)
ORDERS = [rf.WassersteinOrder(p) for p in (1.5, 2.0, 4.0, math.inf)]


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_binomial_atoms_and_weights():
    P = rf.binomial(0.25)
    assert P.support_1d.tolist() == [-1.0, 1.0]
    assert P.weights.tolist() == [0.25, 0.75]
    with pytest.raises(ConfigError):
        rf.binomial(0.5)
    with pytest.raises(ConfigError):
        rf.binomial(0.0)


def test_weights_must_sum_to_one():
    with pytest.raises(ConfigError):
        rf.explicit([0.0, 1.0], [0.6, 0.6])
    # rounding-level deviations are renormalized
    P = rf.explicit([0.0, 1.0], [0.5, 0.5 + 1e-13])
    assert math.isclose(P.weights.sum(), 1.0, rel_tol=0.0, abs_tol=0.0)


def test_negative_weights_rejected():
    with pytest.raises(ConfigError):
        rf.explicit([0.0, 1.0], [1.1, -0.1])


def test_nan_weight_rejected():
    # NaN fails every comparison and used to pass both weight checks
    with pytest.raises(ConfigError, match="finite and nonnegative"):
        rf.explicit([-0.5, 0.1, 0.5], [0.5, math.nan, 0.5])


def test_atoms_must_live_in_state_space():
    space = rf.StateSpace.interval(-1.0, 1.0)
    with pytest.raises(ConfigError):
        rf.explicit([0.0, 2.0], [0.5, 0.5], state_space=space)


def test_state_space_bounds_ordered():
    with pytest.raises(ConfigError):
        rf.StateSpace.interval(1.0, -1.0)


def test_wasserstein_order_validation():
    with pytest.raises(ConfigError):
        rf.WassersteinOrder(1.0)
    with pytest.raises(ConfigError):
        rf.WassersteinOrder(0.5)
    assert rf.WassersteinOrder(2.0).q == 2.0
    assert rf.WassersteinOrder(4.0).q == pytest.approx(4.0 / 3.0)
    assert INF.q == 1.0 and INF.is_inf


def test_measures_are_immutable():
    P = rf.binomial(0.25)
    with pytest.raises(ValueError):
        P.points[0, 0] = 5.0
    with pytest.raises(ValueError):
        P.weights[0] = 0.5


def test_gauss_hermite_node_cap():
    with pytest.raises(ConfigError, match="capped"):
        rf.normal(0.1, 0.2, n_nodes=400)


def test_gauss_hermite_rule_is_numpys_bit_for_bit():
    # the in-tree rule follows numpy.polynomial.hermite.hermgauss operation
    # for operation, over every node count a model may ask for
    for n in range(2, 301):
        t, w = measures._hermgauss(n)
        want_t, want_w = hermgauss(n)
        assert t.tobytes() == want_t.tobytes(), n
        assert w.tobytes() == want_w.tobytes(), n


def test_gauss_hermite_rule_is_built_once_per_node_count(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return hermgauss(n)

    measures._hermite_rule.cache_clear()
    monkeypatch.setattr(measures, "_hermgauss", counted)
    models = [rf.normal(0.1, 0.2, n_nodes=64), rf.normal(-0.3, 1.5, n_nodes=64),
              rf.normal(2.0, 0.01, n_nodes=64), rf.shifted_lognormal(0.05, 0.3, n_nodes=64)]
    assert calls == [64]
    t, w = hermgauss(64)
    for model in models:
        mu, sigma = model.params["mu"], model.params["sigma"]
        z = mu + math.sqrt(2.0) * sigma * t
        x = np.exp(z) - 1.0 if model.kind == "shifted_lognormal" else z
        direct = rf.explicit(x, w / math.sqrt(math.pi))
        assert model.points.tobytes() == direct.points.tobytes()
        assert model.weights.tobytes() == direct.weights.tobytes()
    cached_t, cached_w = measures._hermite_rule(64)
    with pytest.raises(ValueError):
        cached_t[0] = 0.0
    with pytest.raises(ValueError):
        cached_w[0] = 0.0


def test_make_model_dispatch():
    P = rf.make_model({"kind": "binomial", "a": 0.25})
    assert P.kind == "binomial"
    with pytest.raises(ConfigError):
        rf.make_model({"kind": "dirichlet"})
    with pytest.raises(ConfigError):
        rf.make_model({"a": 0.25})
    with pytest.raises(ConfigError):
        rf.make_model({"kind": "binomial", "alpha": 0.25})


# ---------------------------------------------------------------------------
# transport distance
# ---------------------------------------------------------------------------

def test_point_mass_translation_distance():
    for order in ORDERS:
        for c in (0.3, -1.7):
            P = rf.explicit([0.0], [1.0])
            Q = rf.explicit([c], [1.0])
            assert rf.wasserstein_distance(P, Q, order) == pytest.approx(abs(c), abs=1e-14)


def test_two_point_partial_move():
    # move 0.25 mass across distance 2: (0.25 * 2^2)^(1/2) = 1
    P = rf.explicit([-1.0, 1.0], [0.25, 0.75])
    Q = rf.explicit([-1.0, 1.0], [0.5, 0.5])
    d = rf.wasserstein_distance(P, Q, rf.WassersteinOrder(2.0))
    assert d == pytest.approx(1.0, abs=1e-12)


def test_translation_invariance_pushforward():
    P = rf.explicit([-1.0, 0.2, 1.3], [0.2, 0.5, 0.3])
    for order in ORDERS:
        for c in (0.1, -0.45):
            Q = rf.explicit(P.support_1d + c, P.weights)
            d = rf.wasserstein_distance(P, Q, order)
            assert d == pytest.approx(abs(c), rel=1e-12)


def test_renormalized_copy_pairs_atom_for_atom():
    # renormalizing the weights moves one of them by an ulp (0.752884737492146
    # -> ...459 -> ...46); the coupling must still pair each atom with its own
    # image, not send the ulp of mass across the support
    P = rf.explicit([-0.5, 0.5], [0.7528847374921461, 0.247115262507854])
    Q = rf.explicit([-0.4375, 0.5625], P.weights)
    assert not np.array_equal(P.weights, Q.weights)
    for order in ORDERS:
        assert rf.wasserstein_distance(P, Q, order) == pytest.approx(0.0625, rel=1e-12)


@st.composite
def shared_weight_pairs(draw):
    """Two 1-d measures whose atoms, sorted, carry one weight vector: dyadic
    weights summing to exactly 1 (so no renormalization moves them), zeros
    and tied points included, each measure's atoms listed in its own order."""
    n = draw(st.integers(1, 8))
    counts = draw(st.lists(st.integers(0, 4), min_size=n - 1, max_size=n - 1))
    scale = 2 ** max(sum(counts), 1).bit_length()
    w = np.array(counts + [scale - sum(counts)]) / scale
    w = np.array(draw(st.permutations(list(w))))
    # a coarse grid makes ties likely
    coords = st.one_of(st.sampled_from([-1.0, -0.25, 0.0, 0.5]), st.floats(-2.0, 2.0))
    measures_ = []
    for _ in range(2):
        x = np.sort(draw(st.lists(coords, min_size=n, max_size=n)))
        order = np.array(draw(st.permutations(range(n))))
        measures_.append(rf.explicit(x[order], w[order]))
    return tuple(measures_)


@settings(max_examples=200)
@given(pair=shared_weight_pairs())
def test_equal_weight_coupling_matches_the_general_loop(pair):
    # with one weight vector in quantile order the coupling pairs atom i
    # with atom i, dropping zero-weight pairs
    P, Q = pair
    got = _quantile_coupling_segments(P, Q)
    op = np.argsort(P.support_1d, kind="stable")
    oq = np.argsort(Q.support_1d, kind="stable")
    wp, wq = P.weights[op], Q.weights[oq]
    if np.array_equal(wp, wq):
        kept = wp > 0.0
        want = (wp[kept], P.support_1d[op][kept], Q.support_1d[oq][kept])
        for g, r in zip(got, want):
            assert g.dtype == r.dtype and g.shape == r.shape
            assert g.tobytes() == r.tobytes()
    # ties may reorder the weights and split atoms; the segments still carry
    # each measure's weight on each of its points (dyadic weights add exactly)
    mass, a, b = got
    for M, ends in ((P, a), (Q, b)):
        for x in np.unique(M.support_1d):
            assert mass[ends == x].sum() == M.weights[M.support_1d == x].sum()


def test_metric_axioms_random_instances():
    rng = np.random.default_rng(20250817)
    for _ in range(25):
        A, B, C = (random_measure(rng) for _ in range(3))
        for order in ORDERS:
            dab = rf.wasserstein_distance(A, B, order)
            dba = rf.wasserstein_distance(B, A, order)
            dac = rf.wasserstein_distance(A, C, order)
            dcb = rf.wasserstein_distance(C, B, order)
            assert dab >= 0.0
            assert dab == pytest.approx(dba, rel=1e-12, abs=1e-14)
            assert rf.wasserstein_distance(A, A, order) <= 1e-14
            assert dab <= dac + dcb + 1e-10


def test_identity_of_indiscernibles():
    # the same distribution under different atom bookkeeping has distance zero
    A = rf.explicit([-1.0, 0.5, 2.0], [0.4, 0.35, 0.25])
    B = rf.explicit([-1.0, -1.0, 0.5, 2.0], [0.15, 0.25, 0.35, 0.25])
    for order in ORDERS:
        assert rf.wasserstein_distance(A, B, order) <= 1e-14
        assert rf.wasserstein_distance(A, A, order) <= 1e-14


def test_distance_nondecreasing_in_p():
    rng = np.random.default_rng(31)
    for _ in range(10):
        A, B = random_measure(rng), random_measure(rng)
        ds = [rf.wasserstein_distance(A, B, order) for order in ORDERS]
        for lo, hi in zip(ds[:-1], ds[1:]):
            assert lo <= hi + 1e-12


def test_multidimensional_lp_distance():
    # two atoms translated by (0.3, -0.4): Euclidean displacement 0.5 each
    P = rf.DiscreteMeasure(points=np.array([[0.0, 0.0], [1.0, 1.0]]),
                           weights=np.array([0.5, 0.5]))
    Q = rf.DiscreteMeasure(points=np.array([[0.3, -0.4], [1.3, 0.6]]),
                           weights=np.array([0.5, 0.5]))
    d = rf.wasserstein_distance(P, Q, rf.WassersteinOrder(2.0))
    assert d == pytest.approx(0.5, rel=1e-9)
    with pytest.raises(ConfigError):
        rf.wasserstein_distance(P, Q, INF)


def test_dimension_mismatch_rejected():
    P = rf.binomial(0.25)
    Q = rf.DiscreteMeasure(points=np.zeros((1, 2)), weights=np.array([1.0]))
    with pytest.raises(ConfigError):
        rf.wasserstein_distance(P, Q, INF)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_binomial_moments():
    for a in (0.05, 0.25, 0.45):
        mean, cov, sharpe = rf.moments(rf.binomial(a))
        assert mean[0] == pytest.approx(1.0 - 2.0 * a, abs=1e-15)
        assert cov[0, 0] == pytest.approx(4.0 * a * (1.0 - a), abs=1e-15)
    _, _, sharpe = rf.moments(rf.binomial(0.25))
    assert sharpe == pytest.approx(0.5 / math.sqrt(0.75), abs=1e-12)


def test_sharpe_undefined_on_point_mass():
    with pytest.raises(ConfigError):
        rf.moments(rf.explicit([0.7], [1.0]))


def test_normal_quadrature_moments():
    P = rf.normal(0.1, 0.2, 64)
    mean, cov, _ = rf.moments(P)
    assert mean[0] == pytest.approx(0.1, abs=1e-13)
    assert cov[0, 0] == pytest.approx(0.04, abs=1e-13)


def test_lognormal_quadrature_moments():
    mu, sigma = -0.3, 0.35
    P = rf.shifted_lognormal(mu, sigma, 128)
    mean, cov, _ = rf.moments(P)
    m = math.exp(mu + sigma * sigma / 2.0) - 1.0
    v = (math.exp(sigma * sigma) - 1.0) * math.exp(2.0 * mu + sigma * sigma)
    assert mean[0] == pytest.approx(m, abs=1e-12)
    assert cov[0, 0] == pytest.approx(v, abs=1e-12)


def test_quadrature_variance_converges():
    # non-polynomial integrand: error must drop by >= 4x when nodes double
    mu, sigma = -1.0, 1.2
    v_true = (math.exp(sigma * sigma) - 1.0) * math.exp(2.0 * mu + sigma * sigma)
    errs = []
    for n in (8, 16):
        _, cov, _ = rf.moments(rf.shifted_lognormal(mu, sigma, n))
        errs.append(abs(cov[0, 0] - v_true))
    assert errs[0] >= 4.0 * errs[1]
    # the normal variance is a degree-2 integrand: exact at every node count
    for n in (32, 64):
        _, cov, _ = rf.moments(rf.normal(0.1, 0.2, n))
        assert abs(cov[0, 0] - 0.04) <= 1e-13


def test_truncated_normal_support():
    P = rf.truncated_normal(0.19, 0.1, radius=0.4, n_nodes=12)
    assert P.support_1d.min() >= 0.19 - 0.4 - 1e-12
    assert P.support_1d.max() <= 0.19 + 0.4 + 1e-12
    assert P.weights.sum() == pytest.approx(1.0)
    assert not P.unbounded_tails


def test_truncated_normal_whose_densities_all_underflow_names_its_parameters():
    # two nodes at mu +- radius / sqrt(3), 57.7 sigmas out: both densities
    # underflow to 0, and normalizing divided 0 by 0 (a RuntimeWarning, then
    # "weights must be finite and nonnegative", which hid the cause)
    with pytest.raises(ConfigError, match="sigma = 0.01, radius = 1.0 and n_nodes = 2"):
        rf.truncated_normal(0.1, 0.01, radius=1.0, n_nodes=2)
    assert rf.truncated_normal(0.1, 0.01, radius=1.0, n_nodes=3).weights[1] == 1.0


# ---------------------------------------------------------------------------
# arbitrage
# ---------------------------------------------------------------------------

def test_no_arbitrage_check_1d():
    assert rf.no_arbitrage_check(rf.binomial(0.25))
    assert not rf.no_arbitrage_check(rf.explicit([1.0], [1.0]))
    assert not rf.no_arbitrage_check(rf.explicit([0.5, 1.0], [0.5, 0.5]))
    # a zero-weight atom is no chance of gain
    assert not rf.no_arbitrage_check(rf.explicit([-1.0, 1.0], [1.0, 0.0]))


def test_no_arbitrage_check_2d():
    # four atoms surrounding the origin: no arbitrage
    pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    P = rf.DiscreteMeasure(points=pts, weights=np.full(4, 0.25))
    assert rf.no_arbitrage_check(P)
    # all atoms in a half-plane: the orthogonal direction never gains
    pts = np.array([[1.0, 0.1], [0.5, 1.0], [2.0, -0.2]])
    Q = rf.DiscreteMeasure(points=pts + np.array([1.0, 0.0]),
                           weights=np.full(3, 1.0 / 3.0))
    assert not rf.no_arbitrage_check(Q)
    # nor does a zero-weight atom on the other side of the half-plane
    R = rf.DiscreteMeasure(points=np.vstack([Q.points, [[-1.0, 0.0]]]),
                           weights=np.array([0.25, 0.25, 0.5, 0.0]))
    assert not rf.no_arbitrage_check(R)


def test_live_values_zero_only_what_a_zero_weight_atom_cannot_add():
    # an atom of zero weight adds exactly 0 to a weighted sum; elsewhere the
    # values come back as they are, so every finite sum keeps its bits
    w = np.array([0.0, 0.5, 0.0, 0.5])
    v = np.array([np.inf, 1.0, -2.0, np.inf])
    assert measures.live_values(w, v).tolist() == [0.0, 1.0, -2.0, np.inf]
    finite = np.array([3.0, 1.0, -2.0, 4.0])
    assert measures.live_values(w, finite) is finite
    assert measures.live_values(np.full(4, 0.25), v) is v
    P = rf.explicit([-1.0, 0.0, 1.0], [0.0, 0.5, 0.5])
    assert P.expectation(np.array([-np.inf, 2.0, 4.0])) == 3.0
