"""Float sums in the library add left to right on every interpreter.

The builtin ``sum`` of floats is compensated from Python 3.12 on, which moves
last bits that the decrement gate and the pinned digests depend on.  The
library adds through ``measures._sum``; these tests check that helper and
re-run the pinned computations with ``builtins.sum`` replaced by the 3.12
algorithm (``oracles.neumaier_sum``), which shows they do not depend on it.
"""
import builtins
import random

import numpy as np

from hamconc.measures import _left_sums, _sum

import test_cli
import test_concentration
import test_decompose
import test_information
from oracles import left_sum, neumaier_sum


def test_neumaier_sum_is_the_compensated_builtin():
    # the values CPython 3.12 gives, where a left-to-right sum gives others
    assert neumaier_sum([0.1] * 10) == 1.0 != left_sum([0.1] * 10)
    assert neumaier_sum([1e100, 1.0, -1e100, 1.0]) == 2.0
    # ints stay exact ints; a numpy float ends compensation, as in CPython
    assert neumaier_sum([2 ** 70, 1, True]) == 2 ** 70 + 2
    assert neumaier_sum([0.1, np.float64(0.2), 0.3]) == (0.1 + 0.2) + 0.3
    assert neumaier_sum([]) == 0 and neumaier_sum([-0.0], -0.0) == -0.0
    assert neumaier_sum([float("inf"), 1.0]) == float("inf")


def test_helper_adds_left_to_right():
    rng = random.Random(1705)
    for size in (0, 1, 2, 3, 10, 100):
        xs = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-20, 20)
              for _ in range(size)]
        assert repr(_sum(xs)) == repr(left_sum(xs))
        assert repr(_sum(iter(xs))) == repr(left_sum(xs))
    assert _sum([0.1] * 10) != neumaier_sum([0.1] * 10)
    assert _sum(a != b for a, b in zip((0, 1, 1), (1, 1, 0))) == 2


def test_pinned_results_hold_under_compensated_sum(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    assert sum([0.1] * 10) == 1.0
    test_information.test_dtc_corpus_pins_correlation_bits()
    test_decompose.test_decrement_step_pins_split_densities()
    test_decompose.test_decrement_recursion_pins_audit_and_densities()
    test_decompose.test_small_tc_carve_solves_once(monkeypatch)
    test_concentration.test_tilt_corpus_pins_refutation_and_search()
    test_concentration.test_tilt_corpus_undecided_results_unchanged()
    test_cli.test_certify_antipodal_clusters_still_refuted(capsys, tmp_path)


def test_left_sums_have_the_bits_of_cumsum():
    # both routes of the helper (two terms, a running sum) against the
    # running sum's last entry, on many shapes, views as well as copies
    rng = np.random.default_rng(1705)
    shapes = [(0,), (1,), (2,), (3,), (5000,), (4, 0), (0, 3), (3, 1), (7, 2),
              (36, 7, 64, 2), (24, 32), (16, 128), (2048, 3), (17, 200),
              (3, 5, 40), (64, 64), (1, 4096), (2, 3000)]
    for shape in shapes:
        for _ in range(3):
            a = rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.integers(-20, 20, shape)
            a[rng.random(shape) < 0.2] = 0.0
            a[rng.random(shape) < 0.2] = -0.0
            for view in (a, np.swapaxes(a, 0, -1), a[..., ::-1]):
                want = view.cumsum(axis=-1)[..., -1] if view.shape[-1] else \
                    np.zeros(view.shape[:-1])
                got = _left_sums(view)
                assert np.shape(got) == want.shape
                assert np.asarray(got).tobytes() == want.tobytes(), shape
    # zeros of either sign: -0.0 + -0.0 stays -0.0, and a lone -0.0 is kept
    assert np.signbit(_left_sums(np.array([[-0.0, -0.0], [-0.0, 0.0]]))).tolist() == [True, False]
    assert np.signbit(_left_sums(np.full((20, 300), -0.0))).all()
    assert np.signbit(_left_sums(np.array([-0.0])))
