"""Seeded inputs and per-job contract checks for the three workloads.

Inputs are built here with plain Python and numpy and written as the JSON
files the ``hamconc`` command line reads, so the library only ever sees the
files, and a change to the library cannot change the inputs.

Why these workloads (sizes measured on a 2-vCPU Xeon VM at the commit that
added the benchmark):

* ``mixture`` - ``decompose-b`` over 50 fixtures of the mixture-contract
  families (clusters, codes, subgroups, product mixes; n <= 8, 2-128 atoms).
  Dual total correlation inside the decrement checks does half the work; the
  128-atom product mixes (about 2 s each) expose per-atom cost, the ~0.1 s
  median job exposes fixed per-call cost.  The 256-atom product mixes of the
  contract suite take 6-12 s each, more than half a pass, so n stops at 7.
* ``cond-partition`` - ``process --op partition`` at n=5, block size 1, on 24
  2x2 joint Markov chains whose a-letter depends only on the current b-letter.
  Every conditional is then a product measure, every carve takes the
  small-tc route (two exact 32x32 solves per string) and transport does
  about 80% of the work.  n=6 takes about 2.6 s per job and n=7 (128x128
  solves) about 21 s, too long for repeated passes within a run.
* ``certify`` - ``certify`` on 31 measures: 27 of 8-81 atoms at (kappa, r)
  that are not refuted, so the primal channel spends its whole budget (every
  conditioning set up to 10 atoms, 1,022 small exact solves; 96-128 mid-size
  solves from 32 atoms up) and fixed per-solve cost dominates; plus 4
  antipodal clusters the dual channel refutes at once, so that refutation
  witnesses are checked on every run.

The workload seed moves every input, but only through changes that keep a
job's cost: symmetries of the Hamming cube (coordinate permutations and
per-coordinate symbol shifts) for ``mixture`` and ``certify``, and +-0.02
jitter of the chain parameters for ``cond-partition``.  ``decompose-b`` keeps its
pipeline seed fixed because its run time is chaotic in that seed and in
the shape parameters: product_mix(7, 0.1, 0.9) takes 2.3-33 s across
pipeline seeds and 2.3-46 s under +-0.01 jitter of p and q.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

EPSILON = 0.3
R = 0.3
#: reconstruction tolerance of the mixture contract, in total variation
RECON_TV = 1e-9
#: slack allowed when re-checking a witness's Lipschitz constant
LIP_TOL = 1e-9


@dataclass
class Job:
    name: str
    argv: list[str]        # "{input}" marks the input file
    payload: dict          # JSON content of the input file
    check: Callable[["Job", dict], str | None]

    def write(self, directory: Path, index: int) -> list[str]:
        path = directory / f"{index:03d}-{self.name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.payload, fh, sort_keys=True)
        return [str(path) if a == "{input}" else a for a in self.argv]


# -----------------------------------------------------------------------------
# measures as {word: mass} on A^n
# -----------------------------------------------------------------------------
def measure_payload(q: int, n: int, atoms: dict) -> dict:
    total = sum(atoms.values())
    return {"alphabet_size": q, "dimension": n,
            "atoms": [{"word": list(w), "mass": m / total}
                      for w, m in sorted(atoms.items())]}


def payload_atoms(payload: dict) -> dict:
    return {tuple(a["word"]): a["mass"] for a in payload["atoms"]}


def two_cluster(n, mass=0.5):
    return {(0,) * n: mass, (1,) * n: 1.0 - mass}


def partial_cluster(n, k, mass=0.5):
    return {(0,) * n: mass, tuple([1] * k + [0] * (n - k)): 1.0 - mass}


def three_cluster(n):
    mid = tuple([1] * (n // 2) + [0] * (n - n // 2))
    return {(0,) * n: 0.4, mid: 0.3, (1,) * n: 0.3}


def diagonal_code(n):
    words = [tuple(s for s in half for _ in range(2))
             for half in itertools.product(range(2), repeat=n // 2)]
    return {w: 1.0 / len(words) for w in words}


def pair_code(n):
    words = [tuple(x for i, s in enumerate(half) for x in (s, s ^ (i % 2)))
             for half in itertools.product(range(2), repeat=n // 2)]
    return {w: 1.0 / len(words) for w in words}


def subgroup(q, n):
    words = [w for w in itertools.product(range(q), repeat=n) if sum(w) % q == 0]
    return {w: 1.0 / len(words) for w in words}


def product_mix(n, p, q, weight=0.5):
    out = {}
    for w in itertools.product(range(2), repeat=n):
        ones = sum(w)
        out[w] = (weight * p ** ones * (1 - p) ** (n - ones)
                  + (1 - weight) * q ** ones * (1 - q) ** (n - ones))
    return out


def cube_symmetry(atoms: dict, q: int, n: int, rng) -> dict:
    """Image of a measure under a random isometry of the Hamming metric on
    A^n: a coordinate permutation followed by per-coordinate symbol shifts."""
    perm = rng.permutation(n)
    shift = rng.integers(0, q, size=n)
    return {tuple((w[int(perm[i])] + int(shift[i])) % q for i in range(n)): m
            for w, m in atoms.items()}


# -----------------------------------------------------------------------------
# mixture
# -----------------------------------------------------------------------------
def mixture_families() -> list[tuple]:
    """(name, alphabet, n, atoms) of the 50 mixture fixtures, product mixes
    (the costliest) first, so that a run's last, incomplete pass adds
    repeats to the jobs that cost most."""
    return (
        [(f"product-mix-{n}-{p}-{q}", 2, n, product_mix(n, p, q))
         for n, p, q in [(7, 0.1, 0.9), (7, 0.2, 0.8), (6, 0.05, 0.95),
                         (6, 0.25, 0.75), (6, 0.15, 0.7), (5, 0.1, 0.9),
                         (5, 0.25, 0.75), (5, 0.2, 0.9), (5, 0.15, 0.85),
                         (4, 0.1, 0.9), (4, 0.2, 0.7), (4, 0.3, 0.6),
                         (4, 0.15, 0.85)]]
        + [(f"two-cluster-{n}", 2, n, two_cluster(n)) for n in range(2, 9)]
        + [(f"two-cluster-skew-{n}", 2, n, two_cluster(n, 0.3)) for n in range(2, 9)]
        + [(f"partial-cluster-{n}-{k}", 2, n, partial_cluster(n, k))
           for n, k in [(4, 2), (5, 3), (6, 3), (6, 5), (7, 4), (8, 4), (8, 6)]]
        + [(f"diagonal-code-{n}", 2, n, diagonal_code(n)) for n in (4, 6, 8)]
        + [(f"pair-code-{n}", 2, n, pair_code(n)) for n in (4, 6, 8)]
        + [(f"subgroup-{q}-{n}", q, n, subgroup(q, n))
           for q, n in [(2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (5, 3)]]
        + [(f"three-cluster-{n}", 2, n, three_cluster(n)) for n in (4, 5, 6)]
    )


def check_mixture(job: Job, result: dict) -> str | None:
    target = payload_atoms(job.payload)
    pairs = [(w, comp) for w, comp in zip(result["weights"], result["components"])
             if comp is not None and w > 0.0]
    total = sum(w for w, _ in pairs)
    recon: dict = {}
    for w, comp in pairs:
        for word, m in comp:
            key = tuple(word)
            recon[key] = recon.get(key, 0.0) + w / total * m
    tv = 0.5 * sum(abs(recon.get(k, 0.0) - target.get(k, 0.0))
                   for k in set(recon) | set(target))
    if tv >= RECON_TV:
        return f"reconstruction off by {tv} in total variation"
    bad = result["bad_index"]
    if not result["truncated"] and bad is not None \
            and result["weights"][bad] >= EPSILON:
        return f"bad mass {result['weights'][bad]} >= epsilon"
    for i, cert in enumerate(result["certificates"]):
        if i != bad and (cert is None or cert["status"] == "refuted"):
            return f"good component {i} lacks a standing certificate"
    return None


def mixture_jobs(seed: int) -> list[Job]:
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    jobs = []
    for name, q, n, atoms in mixture_families():
        payload = measure_payload(q, n, cube_symmetry(atoms, q, n, rng))
        jobs.append(Job(name, ["decompose-b", "{input}", "--epsilon", str(EPSILON),
                               "--r", str(R), "--seed", "606"],
                        payload, check_mixture))
    return jobs


# -----------------------------------------------------------------------------
# cond-partition
# -----------------------------------------------------------------------------
def joint_chain(p_stay: float, p_match: float) -> dict:
    """2x2 joint chain on symbols b*2 + a: b is a sticky binary chain and the
    next a-letter matches the next b-letter with probability p_match."""
    rows = []
    for state in range(4):
        b = state // 2
        row = [(p_stay if b2 == b else 1 - p_stay)
               * (p_match if a2 == b2 else 1 - p_match)
               for b2 in range(2) for a2 in range(2)]
        rows.append([x / sum(row) for x in row])
    return {"kind": "joint", "base": {"kind": "markov", "transition": rows},
            "b_size": 2, "a_size": 2}


def check_partition(job: Job, result: dict) -> str | None:
    n = int(job.argv[job.argv.index("--n") + 1])
    # every transition is positive, so each conditional charges all of {0,1}^n
    cube = set(itertools.product(range(2), repeat=n))
    if not result["good_strings"]:
        return "no good conditioning string"
    for key in (",".join(map(str, b)) for b in result["good_strings"]):
        part = result["partitions"][key]
        words = [tuple(w) for cell in part["sets"] for w in cell]
        if len(words) != len(set(words)):
            return f"cells overlap for string {key}"
        if set(words) != cube:
            return f"cells do not cover the support for string {key}"
        if part["weights"][0] >= EPSILON:
            return f"residual weight {part['weights'][0]} >= epsilon for {key}"
    return None


def partition_jobs(seed: int, count: int = 24, n: int = 5) -> list[Job]:
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,)))
    jobs = []
    for j in range(count):
        spec = joint_chain(0.7 + rng.uniform(-0.02, 0.02),
                           0.6 + rng.uniform(-0.02, 0.02))
        jobs.append(Job(f"chain-{n}-{j}", [
            "process", "{input}", "--op", "partition", "--n", str(n),
            "--block-size", "1", "--epsilon", str(EPSILON), "--r", str(R),
            "--seed", str(int(rng.integers(0, 2 ** 31)))], spec, check_partition))
    return jobs


# -----------------------------------------------------------------------------
# certify
# -----------------------------------------------------------------------------
def check_certify(job: Job, result: dict) -> str | None:
    if result["status"] != "refuted":
        return None
    argv = job.argv
    kappa = float(argv[argv.index("--kappa") + 1])
    r = float(argv[argv.index("--r") + 1])
    n = job.payload["dimension"]
    atoms = payload_atoms(job.payload)
    f = {tuple(w): v for w, v in result["witness"]["f"]}
    if set(f) != set(atoms):
        return "witness is not defined on the support"
    words = sorted(atoms)
    vals = np.array([f[w] for w in words])
    codes = np.array(words)
    dist = (codes[:, None, :] != codes[None, :, :]).sum(axis=2) / n
    slack = float((np.abs(vals[:, None] - vals[None, :]) - dist).max())
    if slack > LIP_TOL:
        return f"witness is not 1-Lipschitz (slack {slack})"
    masses = np.array([atoms[w] for w in words])
    z = kappa * vals + np.log(masses)
    peak = z.max()
    objective = (peak + math.log(np.exp(z - peak).sum())
                 - kappa * float(masses @ vals) - kappa * r)
    if objective <= 0.0:
        return f"witness objective {objective} is not positive"
    return None


def random_measure(rng, q: int, n: int, k: int) -> dict:
    words: set = set()
    while len(words) < k:
        words.add(tuple(int(x) for x in rng.integers(0, q, size=n)))
    masses = rng.uniform(0.5, 1.5, size=k)
    return dict(zip(sorted(words), masses.tolist()))


def clusters(rng, n: int, size: int) -> dict:
    """Two antipodal clusters of ``size`` atoms each (centre plus neighbours)."""
    atoms = {}
    for centre in ((0,) * n, (1,) * n):
        flips = rng.choice(n, size=size - 1, replace=False)
        atoms[centre] = 1.0
        for i in flips:
            w = list(centre)
            w[int(i)] ^= 1
            atoms[tuple(w)] = 0.2
    return atoms


#: (alphabet, n, atoms, jobs); the costliest go first, so that a run's last,
#: incomplete pass adds repeats to the jobs that cost most
CERTIFY_MIX = [(3, 4, 81, 1), (2, 8, 64, 1), (2, 8, 10, 5),
               (3, 5, 32, 2), (2, 8, 9, 8), (2, 8, 8, 10)]


def certify_jobs(seed: int) -> list[Job]:
    # the measures, (kappa, r) and search seeds are fixed; the workload seed
    # moves each measure by a cube symmetry, which keeps the job's cost
    base = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(3,)))
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3,)))
    jobs = []
    for q, n, k, count in CERTIFY_MIX:
        for j in range(count):
            atoms = random_measure(base, q, n, k)
            kappa, r = base.uniform(1.5, 2.5), base.uniform(0.3, 0.4)
            jobs.append(_certify_job(f"random-{k}-{j}", q, n,
                                     cube_symmetry(atoms, q, n, rng), kappa, r, base))
    for j in range(4):
        n = 5 + j
        atoms = cube_symmetry(clusters(base, n, 1 + j % 3), 2, n, rng)
        jobs.append(_certify_job(f"clusters-{n}", 2, n, atoms, 40.0, 0.05, base))
    return jobs


def _certify_job(name, q, n, atoms, kappa, r, rng) -> Job:
    return Job(name, ["certify", "{input}", "--kappa", repr(float(kappa)),
                      "--r", repr(float(r)),
                      "--seed", str(int(rng.integers(0, 2 ** 31)))],
               measure_payload(q, n, atoms), check_certify)


# -----------------------------------------------------------------------------
WORKLOADS = {
    "mixture": mixture_jobs,
    "cond-partition": partition_jobs,
    "certify": certify_jobs,
}


def smoke_jobs(workload: str, seed: int) -> list[Job]:
    """One small job of the workload, for warm-up and the smoke mode."""
    if workload == "mixture":
        return [j for j in mixture_jobs(seed) if j.name == "two-cluster-4"]
    if workload == "cond-partition":
        return partition_jobs(seed, count=1, n=3)
    return [j for j in certify_jobs(seed) if j.name == "random-8-0"]
