"""Every public function of ``thresholds``, ``mvn``, ``disorder``, ``solvers``,
``landscape`` and ``experiments`` that takes a float either returns finite
numbers or raises a ``MarginlabError``.

Each case is a valid call; its float arguments are the ones replaced.  The
first test swaps one argument at a time for each special value (NaN, both
infinities, signed zeros, the smallest subnormals and the largest finite
floats).  The second draws every float argument at once from the whole float
line or the special values.  ``std_normal_cdf(+-inf)`` gives the finite
limits 1 and 0, which the CLI documents as ``mvn --cdf +-inf``;
``find_negative_psi`` and ``exhaustive_solve`` may return None, but only for
finite inputs.  An accepted call must also run without a numpy overflow,
invalid operation or division by zero.
"""

import dataclasses
import inspect
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marginlab import disorder, experiments, landscape, mvn, solvers, thresholds
from marginlab.errors import MarginlabError

# numpy warns on the overflow that extreme inputs cause before the check that rejects them
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

BIG = sys.float_info.max
SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, BIG, -BIG]


_MAT = disorder.sample_disorder(10, 0.3, seed=1)  # 3 x 10
_REPLICA = disorder.sample_disorder(10, 0.3, seed=1, stream=1)
_SIGMA = landscape.SignVector(10, 0)


#: name -> (function, a valid positional argument tuple)
CASES = {
    "binary_entropy": (thresholds.binary_entropy, (0.3,)),
    "alpha_c": (thresholds.alpha_c, (1.0,)),
    "alpha_ogp": (thresholds.alpha_ogp, (1.0,)),
    "f1": (thresholds.f1, (0.01, 1.7)),
    "f2": (thresholds.f2, (0.95, 1.7)),
    "f3": (thresholds.f3, (0.95, 1.7)),
    "scan_negativity": (thresholds.scan_negativity, ("f2", 1.7, 0.9, 0.95, 0.01)),
    "negativity_onset": (thresholds.negativity_onset, ("f3", 1.5, 1.7)),
    "phi_count": (thresholds.phi_count, (0.9, 0.01, 3)),
    "upsilon": (thresholds.upsilon, (0.9, 0.01, 0.05)),
    "psi_free_energy": (thresholds.psi_free_energy, (1e-4, 0.9, 2, 0.01, 0.05)),
    "psi_upper_bound": (thresholds.psi_upper_bound, (1e-4, 0.9, 2, 0.01, 0.05)),
    "find_negative_psi": (thresholds.find_negative_psi, (0.02, 0.0226)),
    "chaos_exponent": (thresholds.chaos_exponent, (0.05, 0.01, 100)),
    "necessity_terms": (thresholds.necessity_terms, (0.01, 4.0)),
    "necessity_scan": (thresholds.necessity_scan, (0.02,)),
    "std_normal_cdf": (mvn.std_normal_cdf, (0.5,)),
    "quadrant_probability": (mvn.quadrant_probability, (0.3,)),
    "conditional_mean": (mvn.conditional_mean, (0.3,)),
    "box_probabilities_equicorrelated": (
        lambda m, b1, b2, kappa: mvn.box_probabilities_equicorrelated(m, [b1, b2], kappa),
        (3, 0.5, 0.9, 1.0)),
    "box_probability_equicorrelated": (mvn.box_probability_equicorrelated, (3, 0.9, 1.0)),
    "box_probability_upper_bound": (mvn.box_probability_upper_bound, (3, 0.5, 1.0)),
    "DisorderMatrix": (
        lambda alpha, x: disorder.DisorderMatrix(np.full((3, 10), x), "gaussian", 0, alpha),
        (0.3, 0.0)),
    "sample_disorder": (disorder.sample_disorder, (10, 0.3)),
    "interpolate": (lambda tau: disorder.interpolate(_MAT, _REPLICA, tau), (0.4,)),
    "resample_columns": (lambda delta: disorder.resample_columns(_MAT, delta, 1), (0.2,)),
    "sample_rotation": (lambda tau: disorder.sample_rotation(_MAT, tau, 1, 1), (0.4,)),
    "kim_roche_schedule": (
        lambda c, d1, power: solvers.kim_roche_schedule(1000, c, (d1, power)),
        (4.0, 1000.0, 3.0)),
    "kim_roche_solve": (
        lambda c, d1, power: solvers.kim_roche_solve(_MAT, c, (d1, power)), (4.0, 1000.0, 3.0)),
    "online_solve": (lambda kappa: solvers.online_solve(_MAT, kappa), (1.0,)),
    "online_solve/exp_potential": (
        lambda kappa: solvers.online_solve(_MAT, kappa, "exp_potential"), (1.0,)),
    "exhaustive_solve": (lambda kappa: solvers.exhaustive_solve(_MAT, kappa), (1.0,)),
    "is_solution": (lambda kappa: landscape.is_solution(_MAT, _SIGMA, kappa), (1.0,)),
    "enumerate_solutions": (lambda kappa: landscape.enumerate_solutions(_MAT, kappa), (1.0,)),
    "overlap_band": (landscape.overlap_band, (10, 0.5, 0.2)),
    "TupleQuery": (
        lambda beta, eta, kappa, tau: landscape.TupleQuery(2, beta, eta, kappa, (tau,)),
        (0.5, 0.1, 1.0, 0.0)),
    "count_overlap_tuples_exact": (landscape.count_overlap_tuples_exact, (10, 3, 0.6, 0.2)),
    "count_overlap_tuples_bruteforce": (
        landscape.count_overlap_tuples_bruteforce, (5, 2, 0.6, 0.4)),
    "expected_majority_flip_probability": (
        experiments.expected_majority_flip_probability, (0.3,)),
    "majority_stability_trial": (
        lambda tau: experiments.majority_stability_trial(20, 3, tau, 2, 0), (0.3,)),
    "majority_stability_curve": (
        lambda t0, t1: experiments.majority_stability_curve(20, 3, (t0, t1), 2, 0), (0.1, 0.3)),
    "kim_roche_stability_trial": (
        lambda alpha, tau, threshold: experiments.kim_roche_stability_trial(
            100, alpha, tau, 2, 0, threshold), (0.1, 0.3, 0.05)),
    "overlap_trajectory": (
        lambda alpha, kappa: experiments.overlap_trajectory(12, alpha, kappa, "online_exp", 2,
                                                            1, 0), (0.25, 1.0)),
    "online_failure_census": (
        lambda alpha, delta, kappa: experiments.online_failure_census(8, alpha, delta, 1, 0,
                                                                      kappa), (0.5, 0.25, 0.5)),
    "online_two_stage_trial": (
        lambda alpha, delta, kappa: experiments.online_two_stage_trial(
            20, alpha, delta, 1, 0, kappa=kappa), (0.25, 0.2, 1.0)),
    "universality_gap": (
        lambda kappa, beta: experiments.universality_gap((4,), kappa, 2, beta, 100, 0),
        (1.0, 0.5)),
    "stable_replica_parameters": (
        lambda kappa, alpha, eta, sensitivity: experiments.stable_replica_parameters(
            kappa, alpha, 2, eta, sensitivity), (0.01, 0.001, 1e-5, 1.0)),
}

# A scan grid holds (hi - lo) / step points, built before any point is
# checked, and a tiny positive step would build a grid without bound.  The
# onset bisection takes tens of scans for a bracket up to the largest float,
# too slow for 60 draws.  A density or resampled fraction sets a matrix size.
# So these arguments take only the special values that are not positive and
# finite values from a bounded range.
BOUNDED = {
    ("scan_negativity", 2): st.floats(0.0, 1.0),
    ("scan_negativity", 3): st.floats(0.0, 1.0),
    ("scan_negativity", 4): st.floats(0.01, 1.0),
    ("negativity_onset", 1): st.floats(1.5, 1.8),
    ("negativity_onset", 2): st.floats(1.5, 1.8),
    ("sample_disorder", 1): st.floats(0.0, 1.0),
    ("resample_columns", 0): st.floats(0.0, 1.0),
    ("kim_roche_stability_trial", 0): st.floats(0.0, 1.0),
    ("overlap_trajectory", 0): st.floats(0.0, 1.0),
    ("online_failure_census", 0): st.floats(0.0, 1.0),
    ("online_failure_census", 1): st.floats(0.0, 1.0),
    ("online_two_stage_trial", 0): st.floats(0.0, 1.0),
    ("online_two_stage_trial", 1): st.floats(0.0, 1.0),
}

#: Functions whose None result is an answer (no negative point, no solution).
NONE_ANSWERS = {"find_negative_psi", "exhaustive_solve"}

#: Records that the functions under test build and return.
RECORDS = {"KimRocheSchedule", "OverlapTrajectory", "StableReplicaParameters", "TrialSummary"}


def _call(name, args):
    fn, _ = CASES[name]
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            result = fn(*args)
    except FloatingPointError:
        try:
            result = fn(*args)
        except MarginlabError:
            return  # the flag came before the check that rejects the input
        pytest.fail(f"numpy floating-point error at {args}")
    except MarginlabError:
        return
    if result is None:  # no negative point or no solution: an answer only for finite inputs
        assert name in NONE_ANSWERS and all(map(math.isfinite, args)), args
        return
    _assert_finite(result, args)


def _assert_finite(value, args, path="result"):
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            _assert_finite(getattr(value, f.name), args, f"{path}.{f.name}")
    elif isinstance(value, (tuple, list)):
        for i, item in enumerate(value):
            _assert_finite(item, args, f"{path}[{i}]")
    elif isinstance(value, np.ndarray):
        assert np.isfinite(value).all(), (args, path, value)
    elif isinstance(value, float):
        assert math.isfinite(value), (args, path, value)
    else:
        assert value is None or isinstance(value, (int, str)), (args, path, value)


def _float_positions(name):
    return [i for i, a in enumerate(CASES[name][1]) if isinstance(a, float)]


def _specials(name, i):
    return [x for x in SPECIAL if not 0.0 < x <= BIG] if (name, i) in BOUNDED else SPECIAL


def test_valid_calls_return_finite_results():
    for name, (fn, args) in CASES.items():
        _assert_finite(fn(*args), args)


@pytest.mark.parametrize("name", list(CASES))
def test_one_special_argument(name):
    base = CASES[name][1]
    for i in _float_positions(name):
        for x in _specials(name, i):
            _call(name, base[:i] + (x,) + base[i + 1:])


@pytest.mark.parametrize("name", list(CASES))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_all_float_arguments_drawn(name, data):
    args = list(CASES[name][1])
    for i in _float_positions(name):
        wide = BOUNDED.get((name, i), st.floats())
        args[i] = data.draw(st.sampled_from(_specials(name, i)) | wide | st.just(args[i]),
                            label=f"arg{i}")
    _call(name, tuple(args))


def test_cases_cover_every_public_function_with_float_parameters():
    covered = {name.split("/")[0] for name in CASES}
    for module in (thresholds, mvn, disorder, solvers, landscape, experiments):
        for name in module.__all__:
            obj = getattr(module, name)
            if name.endswith(("Point", "Row", "Result")) or name in RECORDS:
                continue  # result records, built only by the functions under test
            if not callable(obj):
                continue
            params = inspect.signature(obj).parameters.values()
            if any("float" in str(p.annotation) for p in params):
                assert name in covered, name
