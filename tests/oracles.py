"""Independent oracles used to pin expected values.

These deliberately avoid the library's own code paths: the transport oracle
solves the coupling linear program directly with scipy's HiGHS backend (a
vertex solution from an unrelated implementation), and the information
oracles are plain summations over explicitly enumerated joint laws.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linprog


def lp_transport_cost(atoms_a: dict, atoms_b: dict, n: int) -> float:
    """Optimal coupling cost under the normalized Hamming metric, by direct LP."""
    src = sorted(atoms_a)
    tgt = sorted(atoms_b)
    cost = np.array([[sum(x != y for x, y in zip(a, b)) / n for b in tgt]
                     for a in src])
    return lp_coupling_cost(np.array([atoms_a[w] for w in src]),
                            np.array([atoms_b[w] for w in tgt]), cost)


def lp_coupling_cost(a, b, cost) -> float:
    """Least cost of a coupling of the mass vectors ``a`` and ``b`` under the
    cost matrix ``cost``, by direct LP."""
    rows, cols = cost.shape
    a_eq = []
    for i in range(rows):
        row = np.zeros(rows * cols)
        row[i * cols:(i + 1) * cols] = 1.0
        a_eq.append(row)
    for j in range(cols):
        row = np.zeros(rows * cols)
        row[j::cols] = 1.0
        a_eq.append(row)
    res = linprog(np.asarray(cost, dtype=float).ravel(), A_eq=np.array(a_eq),
                  b_eq=np.concatenate([a, b]), bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def entropy_direct(masses) -> float:
    return -sum(p * math.log(p) for p in masses if p > 0)


def joint_entropy(joint: dict) -> float:
    return entropy_direct(joint.values())


def project_joint(joint: dict, coords) -> dict:
    out: dict = {}
    for key, mass in joint.items():
        sub = tuple(key[c] for c in coords)
        out[sub] = out.get(sub, 0.0) + mass
    return out


def mutual_information_from_joint(joint: dict, left, right) -> float:
    """I between two coordinate groups of an explicit joint law."""
    h_l = joint_entropy(project_joint(joint, left))
    h_r = joint_entropy(project_joint(joint, right))
    h_lr = joint_entropy(project_joint(joint, list(left) + list(right)))
    return h_l + h_r - h_lr


def dtc_direct(atoms: dict, n: int) -> float:
    """Dual total correlation via the leave-one-out marginal identity."""
    h = joint_entropy(atoms)
    total = 0.0
    for i in range(n):
        rest = [c for c in range(n) if c != i]
        total += joint_entropy(project_joint(atoms, rest))
    return total - (n - 1) * h


def random_sparse_measure(rng, alphabet, n, max_support):
    """A random sparse atom map (dict word -> mass) summing to one."""
    words = list(itertools.product(range(alphabet), repeat=n))
    size = int(rng.integers(1, min(max_support, len(words)) + 1))
    chosen = rng.choice(len(words), size=size, replace=False)
    masses = rng.random(size) + 1e-3
    masses /= masses.sum()
    return {words[i]: float(m) for i, m in zip(chosen, masses)}
