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

from hamconc.measures import _sum

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
