"""Every public function of ``thresholds`` and ``mvn`` that takes a float
either returns finite numbers or raises a ``MarginlabError``.

Each case is a valid call; its float arguments are the ones replaced.  The
first test swaps one argument at a time for each special value (NaN, both
infinities, signed zeros, the smallest subnormals and the largest finite
floats).  The second draws every float argument at once from the whole float
line or the special values.  ``std_normal_cdf(+-inf)`` gives the finite
limits 1 and 0, which the CLI documents as ``mvn --cdf +-inf``;
``find_negative_psi`` may return None, but only for finite inputs.
"""

import dataclasses
import inspect
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marginlab import mvn, thresholds
from marginlab.errors import MarginlabError

# numpy warns on the overflow that extreme inputs cause before the check that rejects them
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

BIG = sys.float_info.max
SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, BIG, -BIG]


def _spec(dim, beta, eta_bound):
    return mvn.CovarianceSpec(dim, beta, None, eta_bound)


def _pair(a, b, r):
    return [[a, r], [r, b]]


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
    "box_probability_general": (
        lambda dim, beta, kappa: mvn.box_probability_general(_spec(dim, beta, 0.0), kappa),
        (3, 0.5, 1.0)),
    "box_probability_general/matrix": (
        lambda a, b, r, kappa: mvn.box_probability_general(_pair(a, b, r), kappa),
        (1.0, 2.0, 0.3, 1.0)),
    "box_probability_upper_bound": (
        lambda dim, beta, kappa: mvn.box_probability_upper_bound(_spec(dim, beta, 0.0), kappa),
        (3, 0.5, 1.0)),
    "box_probability_upper_bound/matrix": (
        lambda a, b, r, kappa: mvn.box_probability_upper_bound(_pair(a, b, r), kappa),
        (1.0, 2.0, 0.3, 1.0)),
    "CovarianceSpec": (_spec, (2, 0.5, 0.1)),
}

# A scan grid holds (hi - lo) / step points, built before any point is
# checked, and the onset bisection runs log2((alpha_hi - alpha_lo) / 1e-3)
# scans.  A tiny positive step would build a grid without bound, and a bracket
# up to the largest float takes about 1,000 scans, so these arguments take
# only the special values that are not positive and finite values from a
# bounded range.
BOUNDED = {
    ("scan_negativity", 2): st.floats(0.0, 1.0),
    ("scan_negativity", 3): st.floats(0.0, 1.0),
    ("scan_negativity", 4): st.floats(0.01, 1.0),
    ("negativity_onset", 1): st.floats(1.5, 1.8),
    ("negativity_onset", 2): st.floats(1.5, 1.8),
}


def _call(name, args):
    fn, _ = CASES[name]
    try:
        result = fn(*args)
    except MarginlabError:
        return
    if result is None:  # no negative point: an answer only for finite inputs
        assert name == "find_negative_psi" and all(map(math.isfinite, args)), args
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
    for module in (thresholds, mvn):
        for name in module.__all__:
            obj = getattr(module, name)
            if name.endswith(("Point", "Row", "Result")):
                continue  # result records, built only by the functions under test
            params = inspect.signature(obj).parameters.values()
            if any("float" in str(p.annotation) for p in params):
                assert name in covered, name
