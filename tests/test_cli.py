"""CLI contracts: JSON shapes, round trips, determinism, exit codes."""
import hashlib
import itertools
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hamconc import decompose, measures
from hamconc.cli import run
from hamconc.measures import (
    DiscreteMeasure,
    ProductSpace,
    dump_measure,
    load_measure,
    measure_from_dict,
)

from conftest import make_measure, product_mix


@pytest.fixture
def diag_file(tmp_path):
    mu = make_measure(2, 2, {(0, 0): 0.5, (1, 1): 0.5})
    path = tmp_path / "diag.json"
    dump_measure(mu, str(path))
    return str(path)


@pytest.fixture
def mix_file(tmp_path):
    mu = product_mix(5, 0.15, 0.85)
    path = tmp_path / "mix.json"
    dump_measure(mu, str(path))
    return str(path)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_info_report(capsys, diag_file):
    code, payload = run_json(capsys, ["info", diag_file])
    assert code == 0
    assert math.isclose(payload["result"]["tc"], math.log(2))
    assert payload["manifest"]["version"]
    assert diag_file in payload["manifest"]["input_digest"]


def test_transport_plan_json(capsys, tmp_path, diag_file):
    other = make_measure(2, 2, {(0, 1): 0.5, (1, 0): 0.5})
    path = tmp_path / "other.json"
    dump_measure(other, str(path))
    code, payload = run_json(capsys, ["transport", diag_file, str(path)])
    assert code == 0
    assert math.isclose(payload["result"]["cost"], 0.5)
    assert abs(payload["result"]["dual_gap"]) <= 1e-8
    total = sum(m for _, _, m in payload["result"]["plan"])
    assert math.isclose(total, 1.0, abs_tol=1e-9)


def test_certify_refutes_two_cluster(capsys, diag_file):
    code, payload = run_json(
        capsys, ["certify", diag_file, "--kappa", "50", "--r", "0.1"])
    assert code == 0
    assert payload["result"]["status"] == "refuted"


def _strict_json(text):
    """Parse JSON, rejecting the non-standard NaN and Infinity literals."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("flag, value", [("--kappa", "nan"), ("--kappa", "inf"),
                                         ("--r", "nan"), ("--r", "inf")])
def test_certify_non_finite_params_exit_2(capsys, diag_file, flag, value):
    # argparse keeps the last value of a repeated option
    code = run(["certify", diag_file, "--kappa", "1", "--r", "0.1", flag, value])
    payload = _strict_json(capsys.readouterr().out)
    assert code == 2
    assert payload["error"]["type"] == "validation"
    assert "finite" in payload["error"]["message"]


def _dump(tmp_path, name, mu):
    path = tmp_path / name
    dump_measure(mu, str(path))
    return str(path)


def test_certify_bench_like_measure_holds_by_hoeffding(capsys, tmp_path):
    # 8 atoms on {0,1}^8 at kappa in [1.5, 2.5], r in [0.3, 0.4], like the
    # certify bench jobs: kappa diam^2 / 8 <= r, so no search runs
    rng = np.random.default_rng(8)
    words = set()
    while len(words) < 8:
        words.add(tuple(int(x) for x in rng.integers(0, 2, size=8)))
    mu = DiscreteMeasure.from_unnormalized(
        ProductSpace(2, 8), dict(zip(sorted(words), rng.uniform(0.5, 1.5, 8))))
    code, payload = run_json(capsys, ["certify", _dump(tmp_path, "m.json", mu),
                                      "--kappa", "2.2", "--r", "0.33"])
    assert code == 0
    assert payload["result"] == {
        "status": "holds", "bound": "hoeffding",
        "budget_used": {"subsets_checked": 0, "restarts_run": 0,
                        "gradient_steps": 0}}


def test_certify_point_mass_holds_by_diameter(capsys, tmp_path):
    mu = DiscreteMeasure.point_mass(ProductSpace(2, 4), (0, 1, 1, 0))
    code, payload = run_json(capsys, ["certify", _dump(tmp_path, "p.json", mu),
                                      "--kappa", "1000", "--r", "0.01"])
    assert code == 0
    assert payload["result"]["status"] == "holds"
    assert payload["result"]["bound"] == "diameter"


#: sha256 of the ``certify`` result on two antipodal 3-atom clusters at
#: (40, 0.05), recorded before the a-priori bounds existed
CLUSTERS_RESULT_DIGEST = (
    "91b4531a99e3405b6741034096330995c3275a8c56aed7ed8024d1b465117159")


def test_certify_antipodal_clusters_still_refuted(capsys, tmp_path):
    n = 6
    atoms = {}
    for centre in ((0,) * n, (1,) * n):
        atoms[centre] = 1.0
        for i in (1, 4):
            w = list(centre)
            w[i] ^= 1
            atoms[tuple(w)] = 0.2
    mu = DiscreteMeasure.from_unnormalized(ProductSpace(2, n), atoms)
    code, payload = run_json(capsys, ["certify", _dump(tmp_path, "c.json", mu),
                                      "--kappa", "40", "--r", "0.05",
                                      "--seed", "3"])
    assert code == 0
    result = payload["result"]
    assert result["status"] == "refuted" and "bound" not in result
    blob = json.dumps(result, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == CLUSTERS_RESULT_DIGEST


def test_decompose_b_good_certificates_hold(capsys, mix_file):
    code, payload = run_json(capsys, ["decompose-b", mix_file, "--seed", "3"])
    assert code == 0
    res = payload["result"]
    good = [cert for i, cert in enumerate(res["certificates"])
            if i != res["bad_index"]]
    assert good
    for cert in good:
        assert cert["status"] == "holds"
        assert cert["bound"] in ("diameter", "hoeffding")


def test_decompose_b_result_keeps_the_contract_fields(capsys, mix_file):
    # the mixture bench contract reads these fields; ``truncated`` is False
    # on every input but is still emitted
    code, payload = run_json(capsys, ["decompose-b", mix_file, "--seed", "3"])
    assert code == 0
    res = payload["result"]
    assert {"weights", "components", "bad_index", "truncated",
            "certificates"} <= res.keys()
    assert res["truncated"] is False
    assert len(res["weights"]) == len(res["components"]) == len(res["certificates"])


def test_bench_smoke_contracts_hold():
    # the bench checks every workload's result contract (reconstruction,
    # standing certificates, re-verified witnesses) on one small job each
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                          cwd=root, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, proc.stderr


def test_measure_roundtrip_through_emitted_json(capsys, mix_file, tmp_path):
    code, payload = run_json(capsys, ["decompose-b", mix_file,
                                      "--epsilon", "0.3", "--r", "0.3",
                                      "--seed", "3"])
    assert code == 0
    res = payload["result"]
    assert res["kind"] == "mixture"
    # every emitted component reloads to a valid identical measure
    for comp in res["components"]:
        if comp is None:
            continue
        blob = {"alphabet_size": 2, "dimension": 5,
                "atoms": [{"word": w, "mass": m} for w, m in comp]}
        again = measure_from_dict(blob)
        assert [[list(w), m] for w, m in again.atoms.items()] == comp


def test_partition_byte_determinism(capsys, mix_file):
    argv = ["partition-c", mix_file, "--epsilon", "0.1", "--r", "0.2",
            "--seed", "7"]
    code1, payload1 = run_json(capsys, argv)
    code2, payload2 = run_json(capsys, argv)
    assert code1 == code2 == 0
    blob1 = json.dumps(payload1["result"], sort_keys=True)
    blob2 = json.dumps(payload2["result"], sort_keys=True)
    assert blob1 == blob2


def test_partition_falls_back_to_heaviest_atom(capsys, tmp_path):
    # the uniform even-parity law on {0,1}^8 has TC = log 2 > r^4 n, and at
    # cB = 1e-7 its atoms (1/128) lie below the heavy-atom threshold, so its
    # carves take neither route and fall back to the heaviest atom
    words = [w for w in itertools.product(range(2), repeat=8) if sum(w) % 2 == 0]
    path = tmp_path / "parity.json"
    dump_measure(DiscreteMeasure.uniform_on(ProductSpace(2, 8), words), str(path))
    argv = ["partition-c", str(path), "--constants", "cB=1e-7"]
    code, payload = run_json(capsys, argv)
    assert code == 0
    result = payload["result"]
    weights, carves = result["weights"], result["audit"]["carves"]
    assert len(carves) == len(weights) - 1
    fallbacks = 0
    for i, carve in enumerate(carves, start=1):
        assert carve["case"] == "atom"
        # the carved atom's mass in the remainder it was carved from
        top = weights[i] / (weights[0] + sum(weights[i:]))
        fallback = top < carve["atom_threshold"]
        assert fallback == ("heavy atom mass >= e^{-161 c_B TC / delta^2}"
                            in carve["paper_inequality_failures"])
        fallbacks += fallback
    assert fallbacks > 0
    again = run_json(capsys, argv)
    assert json.dumps(again[1]["result"], sort_keys=True) == \
        json.dumps(result, sort_keys=True)


def test_invalid_measure_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"alphabet_size": 2, "dimension": 2,
         "atoms": [{"word": [0, 5], "mass": 1.0}]}))
    code = run(["info", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert "atoms[0].word" in payload["error"]["message"]


def test_nan_mass_exits_2(capsys, tmp_path):
    # json accepts NaN; the mass was once dropped, leaving a point mass
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(
        {"alphabet_size": 2, "dimension": 2,
         "atoms": [{"word": [0, 0], "mass": 1.0},
                   {"word": [1, 1], "mass": math.nan}]}))
    assert "NaN" in path.read_text()
    code = run(["decompose-b", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert "atoms[1].mass" in payload["error"]["message"]


@pytest.mark.parametrize("spec, field", [
    ({"kind": "iid", "dist": [math.nan, 0.5]}, "iid distribution"),
    ({"kind": "markov", "transition": [[math.nan, 0.5], [0.5, 0.5]],
      "stationary": [0.5, 0.5]}, "transition rows"),
    ({"kind": "markov", "transition": [[0.5, 0.5], [0.5, 0.5]],
      "stationary": [math.nan, 0.5]}, "stationary law"),
], ids=["iid", "markov-transition", "markov-stationary"])
def test_nan_process_spec_exits_2(capsys, tmp_path, spec, field):
    # every check was an ordered comparison, so a NaN entry once passed and
    # the window law silently dropped the paths through it
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = run(["process", str(path), "--op", "block", "--n", "2"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert field in payload["error"]["message"]


def test_decompose_b_splits_the_final_partition_once(capsys, mix_file,
                                                     monkeypatch):
    splits = []
    split = decompose.fuzzy_split

    def counting(mu, fp):
        splits.append(fp)
        return split(mu, fp)

    monkeypatch.setattr(decompose, "fuzzy_split", counting)
    code, payload = run_json(capsys, ["decompose-b", mix_file, "--seed", "3"])
    assert code == 0 and payload["result"]["kind"] == "mixture"
    assert len(splits) == 1


def test_removed_knobs_exit_2(capsys, diag_file):
    assert run(["decompose-b", diag_file, "--constants", "cC=1"]) == 2
    assert "unknown constant" in json.loads(capsys.readouterr().out)["error"]["message"]
    assert run(["--threads", "2", "info", diag_file]) == 2
    capsys.readouterr()
    code, payload = run_json(capsys, ["decompose-b", diag_file])
    assert code == 0
    removed = {"c_C", "mix_denominator", "approx_transport", "threads",
               "max_cells", "carve_retries", "atom_exponent", "dec_denominator",
               "final_denominator", "split_budget", "sample_start", "sample_cap"}
    assert not removed & set(payload["manifest"]["config"])


@pytest.mark.parametrize("reg", ["0", "-1", "nan", "inf"])
def test_sinkhorn_bad_reg_exits_2(capsys, diag_file, reg):
    code, payload = run_json(capsys, ["transport", diag_file, diag_file,
                                      "--approx", "--reg", reg])
    assert code == 2
    assert payload["error"]["type"] == "validation"
    assert "reg" in payload["error"]["message"]


@pytest.mark.parametrize("flag", ["--budget-subsets", "--budget-restarts"])
def test_negative_budget_exits_2(capsys, diag_file, flag):
    code, payload = run_json(capsys, ["certify", diag_file, "--kappa", "1",
                                      "--r", "0.1", flag, "-3"])
    assert code == 2
    assert payload["error"]["type"] == "validation"


@pytest.fixture
def joint_spec_file(tmp_path):
    spec = {"kind": "joint", "b_size": 2, "a_size": 2,
            "base": {"kind": "iid", "dist": [0.25, 0.25, 0.25, 0.25]}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["certify", "MEASURE", "--kappa", "1", "--r", "0.1"],
    ["decompose-b", "MEASURE"],
    ["partition-c", "MEASURE"],
    ["process", "SPEC", "--op", "block", "--n", "2", "--empirical-length", "20"],
    ["process", "SPEC", "--op", "partition", "--n", "2"],
])
def test_negative_seed_exits_2(capsys, diag_file, joint_spec_file, argv):
    argv = [{"MEASURE": diag_file, "SPEC": joint_spec_file}.get(a, a)
            for a in argv]
    code = run(argv + ["--seed", "-1"])
    payload = _strict_json(capsys.readouterr().out)
    assert code == 2
    assert payload["error"] == {"type": "validation",
                                "message": "seed must be >= 0, got -1"}


@pytest.mark.parametrize("op, block_size", [("tc-profile", "0"),
                                            ("tc-profile", "-2"),
                                            ("partition", "0")])
def test_block_size_below_one_exits_2(capsys, joint_spec_file, op, block_size):
    code = run(["process", joint_spec_file, "--op", op, "--n", "2",
                "--block-size", block_size])
    payload = _strict_json(capsys.readouterr().out)
    assert code == 2
    assert payload["error"] == {"type": "validation",
                                "message": "block size must be >= 1"}


@pytest.mark.parametrize("constants", ["c=nan", "cB=0", "c=-1", "cB=inf"])
def test_bad_pipeline_constants_exit_2(capsys, diag_file, constants):
    for command in ("decompose-b", "partition-c"):
        code, payload = run_json(capsys, [command, diag_file,
                                          "--constants", constants])
        assert code == 2
        assert payload["error"]["type"] == "validation"


@pytest.mark.parametrize("command", ["decompose-b", "partition-c"])
def test_tiny_r_exits_2_naming_r(capsys, diag_file, command):
    # r^2 / 42 underflows to 0.0, so delta would be 0
    code = run([command, diag_file, "--r", "1e-320"])
    payload = _strict_json(capsys.readouterr().out)
    assert code == 2
    assert payload["error"] == {
        "type": "validation",
        "message": "r = 1e-320 is too small: delta = min(r^2/42, 1/18) "
                   "underflows to 0"}


def test_partition_r_with_delta_squared_underflow_exits_2(capsys, diag_file):
    # delta = r^2 / 42 is positive, but the atom threshold exponent
    # 161 c_B / delta^2 would divide by 0
    code = run(["partition-c", diag_file, "--r", "1e-100"])
    payload = _strict_json(capsys.readouterr().out)
    assert code == 2
    assert payload["error"]["type"] == "validation"
    assert "r = 1e-100" in payload["error"]["message"]


def test_missing_file_exits_2(capsys):
    assert run(["info", "/nonexistent/measure.json"]) == 2
    capsys.readouterr()


def test_cap_exhaustion_exits_3(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("HC_MAX_SUPPORT", "4")
    mu = product_mix(4, 0.2, 0.8)
    a = tmp_path / "a.json"
    dump_measure(mu, str(a))
    code = run(["transport", str(a), str(a)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 3
    assert payload["error"]["type"] == "SupportCapExceeded"


@pytest.mark.parametrize("spec", [
    {"kind": "iid", "dist": [0.2, 0.3, 0.5]},
    {"kind": "markov", "transition": [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25],
                                      [0.25, 0.25, 0.5]]},
])
def test_block_support_cap_exits_3(capsys, tmp_path, monkeypatch, spec):
    # 3 letters: 9 words at n = 2 fit a cap of 20, 27 at n = 3 do not
    monkeypatch.setattr(measures, "DEFAULT_SUPPORT_CAP", 20)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, payload = run_json(capsys, ["process", str(path), "--op", "block",
                                      "--n", "2"])
    assert code == 0 and len(payload["result"]["atoms"]) == 9
    code, payload = run_json(capsys, ["process", str(path), "--op", "block",
                                      "--n", "3"])
    assert code == 3
    assert payload["error"]["type"] == "SupportCapExceeded"
    assert "--empirical-length" in payload["error"]["message"]


@pytest.mark.parametrize("op, flag, value", [
    ("block", "--block-size", "2"),
    ("rel-dbar", "--block-size", "2"),
    ("gap", "--block-size", "2"),
    ("tc-profile", "--empirical-length", "50"),
    ("rel-dbar", "--empirical-length", "50"),
    ("gap", "--empirical-length", "50"),
    ("partition", "--empirical-length", "50"),
    ("tc-profile", "--k", "3"),
    ("block", "--theta", "SPEC"),
    ("gap", "--epsilon", "0.2"),
    ("tc-profile", "--seed", "4"),
    ("partition", "--max-iters", "5"),
])
def test_process_flag_its_op_ignores_exits_2(capsys, joint_spec_file, op, flag,
                                             value):
    argv = ["process", joint_spec_file, "--op", op, "--n", "2", flag,
            joint_spec_file if value == "SPEC" else value]
    code, payload = run_json(capsys, argv)
    assert code == 2
    assert payload["error"] == {"type": "validation",
                                "message": f"--op {op} does not read {flag}"}


def test_exact_block_law_takes_no_seed(capsys, joint_spec_file):
    code, payload = run_json(capsys, ["process", joint_spec_file, "--op", "block",
                                      "--n", "2", "--seed", "4"])
    assert code == 2
    assert payload["error"] == {"type": "validation",
                                "message": "--op block does not read --seed"}


@pytest.mark.parametrize("op", ["partition", "rel-dbar", "gap", "tc-profile", "block"])
def test_zero_window_length_exits_2(capsys, joint_spec_file, op):
    # partition, rel-dbar and gap used to crash with a traceback (exit 1),
    # and tc-profile to return an empty profile
    argv = ["process", joint_spec_file, "--op", op, "--n", "0"]
    if op == "rel-dbar":
        argv += ["--theta", joint_spec_file]
    code, payload = run_json(capsys, argv)
    assert code == 2
    assert payload["error"] == {"type": "validation",
                                "message": "window length must be >= 1"}


def test_exact_transport_rejects_reg(capsys, diag_file):
    # --reg is read only with --approx, so an exact run may not move it
    code, payload = run_json(capsys, ["transport", diag_file, diag_file,
                                      "--reg", "-3"])
    assert code == 2
    assert payload["error"] == {"type": "validation",
                                "message": "exact transport does not read --reg"}
    code, payload = run_json(capsys, ["transport", diag_file, diag_file,
                                      "--reg", "5e-3"])
    assert code == 0 and payload["result"]["exact"]


def test_partition_rejects_max_iters(capsys, diag_file):
    # only the mixture recursion reads --max-iters, so a partition run may
    # not move it; --seed is accepted though the partition reads none
    code, payload = run_json(capsys, ["partition-c", diag_file, "--max-iters", "5"])
    assert code == 2
    assert payload["error"] == {"type": "validation",
                                "message": "partition-c does not read --max-iters"}
    code, payload = run_json(capsys, ["partition-c", diag_file, "--max-iters", "64",
                                      "--seed", "7"])
    assert code == 0 and payload["result"]["kind"] == "partition"


def test_empirical_block_law_reads_its_seed(capsys, joint_spec_file):
    laws = []
    for seed in ("4", "5", "4"):
        code, payload = run_json(capsys, ["process", joint_spec_file, "--op",
                                          "block", "--n", "2", "--seed", seed,
                                          "--empirical-length", "40"])
        assert code == 0 and payload["manifest"]["seed"] == int(seed)
        laws.append(payload["result"])
    assert laws[0] == laws[2] != laws[1]


def test_process_flag_at_its_default_is_accepted(capsys, joint_spec_file):
    code, payload = run_json(capsys, ["process", joint_spec_file, "--op", "gap",
                                      "--n", "2", "--block-size", "1",
                                      "--empirical-length", "0"])
    assert code == 0 and payload["result"]["gap"] == 0.0


def test_non_numeric_constant_exits_2(capsys, diag_file):
    code, payload = run_json(capsys, ["decompose-b", diag_file,
                                      "--constants", "c=abc"])
    assert code == 2
    assert payload["error"]["type"] == "validation"
    assert "'c'" in payload["error"]["message"]


def test_non_integer_support_cap_exits_2(capsys, diag_file, monkeypatch):
    monkeypatch.setenv("HC_MAX_SUPPORT", "lots")
    code, payload = run_json(capsys, ["transport", diag_file, diag_file])
    assert code == 2
    assert payload["error"]["type"] == "validation"
    assert "HC_MAX_SUPPORT" in payload["error"]["message"]


@pytest.mark.parametrize("cap", ["0", "-3", "1"])
def test_support_cap_below_two_exits_2(capsys, diag_file, monkeypatch, cap):
    # such a cap would make every exact solve exit 3
    monkeypatch.setenv("HC_MAX_SUPPORT", cap)
    code, payload = run_json(capsys, ["transport", diag_file, diag_file])
    assert code == 2
    assert payload["error"]["type"] == "validation"
    assert "HC_MAX_SUPPORT" in payload["error"]["message"]


def test_process_subcommand(capsys, tmp_path):
    spec = {"kind": "joint", "b_size": 2, "a_size": 2,
            "base": {"kind": "iid", "dist": [0.25, 0.25, 0.25, 0.25]}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, payload = run_json(
        capsys, ["process", str(path), "--op", "gap", "--n", "2", "--k", "2"])
    assert code == 0
    assert payload["result"]["gap"] == 0.0
    code, payload = run_json(
        capsys, ["process", str(path), "--op", "tc-profile", "--n", "3"])
    assert code == 0
    assert all(abs(x) < 1e-10 for x in payload["result"]["tc_profile"])


def test_boolean_mass_exits_2(capsys, tmp_path):
    # isinstance(True, int) holds, so a JSON true once loaded as mass 1.0
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(
        {"alphabet_size": 2, "dimension": 2,
         "atoms": [{"word": [0, 0], "mass": True}]}))
    code, payload = run_json(capsys, ["decompose-b", str(path)])
    assert code == 2 and payload["error"]["type"] == "validation"
    assert payload["error"]["message"] == (
        f"{path}: atoms[0].mass: expected nonnegative number")


def test_consecutive_runs_share_no_parse_state(capsys, diag_file, joint_spec_file,
                                               tmp_path):
    # run builds its parser once; each call must still read only its own argv
    code, payload = run_json(capsys, ["decompose-b", diag_file, "--constants", "c=5"])
    assert code == 0 and payload["manifest"]["config"]["c"] == 5.0
    code, payload = run_json(capsys, ["decompose-b", diag_file])
    assert code == 0 and payload["manifest"]["config"]["c"] == 50.0

    theta = tmp_path / "theta.json"
    theta.write_text(Path(joint_spec_file).read_text())
    code, payload = run_json(capsys, ["process", joint_spec_file, "--theta",
                                      str(theta), "--op", "rel-dbar", "--n", "2"])
    assert code == 0 and str(theta) in payload["manifest"]["input_digest"]
    code, payload = run_json(capsys, ["process", joint_spec_file, "--op", "block",
                                      "--n", "2"])
    assert code == 0
    assert list(payload["manifest"]["input_digest"]) == [joint_spec_file]
    code, payload = run_json(capsys, ["process", joint_spec_file, "--op", "rel-dbar",
                                      "--n", "2"])
    assert code == 2
    assert payload["error"]["message"] == "rel-dbar needs --theta"

    assert run(["info", diag_file, "--no-such-flag"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert run(["--help"]) == 0
    assert "decompose-b" in capsys.readouterr().out
    code, payload = run_json(capsys, ["info", diag_file])
    assert code == 0 and payload["manifest"]["command"] == ["info", diag_file]


def _memory_chain(memory=0.1):
    """A 2x2 joint chain whose next a-letter also depends on the last one,
    so the conditional laws are not products: it matches the next b-letter
    with probability 0.6, plus ``memory`` when the last a-letter equals that
    b-letter; its stationary law comes from ``MarkovSpec.from_matrix``."""
    rows = []
    for state in range(4):
        b, a = divmod(state, 2)
        row = []
        for b2 in range(2):
            for a2 in range(2):
                p_match = 0.6 + memory if a == b2 else 0.6
                row.append((0.75 if b2 == b else 0.25)
                           * (p_match if a2 == b2 else 1 - p_match))
        rows.append(row)
    return {"kind": "markov", "transition": rows}


#: joint specs for the pinned ``process --op partition`` results: the bench
#: chain (product conditionals), a chain with memory in a, one with weak
#: memory (9 or 10 cells per string, so carving rounds run on many strings
#: at once), and a hidden chain with zero transitions and a decreasing emit
#: map (no good strings at this r, so it pins the window law through
#: ``tc_by_string`` alone)
PARTITION_SPECS = {
    "sticky": {"kind": "markov",
               "transition": [[0.42, 0.28, 0.12, 0.18]] * 2
               + [[0.18, 0.12, 0.28, 0.42]] * 2,
               "stationary": [0.3, 0.2, 0.2, 0.3]},
    "memory": _memory_chain(),
    "weak-memory": _memory_chain(0.05),
    "hidden": {"kind": "hidden", "emit": [2, 0, 3, 1, 0],
               "base": {"kind": "markov", "transition": [
                   [0.25, 0.2, 0.0, 0.3, 0.25], [0.2, 0.25, 0.3, 0.0, 0.25],
                   [0.25, 0.0, 0.25, 0.25, 0.25], [0.2, 0.3, 0.0, 0.25, 0.25],
                   [0.3, 0.2, 0.25, 0.0, 0.25]]}},
}
#: sha256 of each whole partition result (JSON, sorted keys): partitions,
#: labels, ``tc_by_string`` and ``good_mass``, recorded while the window laws
#: and block kernels were still built word by word in dicts (weak-memory: while
#: each string was still partitioned on its own)
PARTITION_RESULT_DIGESTS = {
    "sticky": "b8dc3af2e599e9a9a5da75e2f8771e2541d7e97c8656517ed4e8aa0fcb9a861e",
    "memory": "f77809aff01294d767f1e5ab4b6de33186902b815ff969b69aa7bd59b727d1d9",
    "weak-memory": "87d3ebb2e4b3134e8db8787aad030e730e44d8f8076c1e7754f9c1619b74ad7e",
    "hidden": "7454d7c5a5e8271536b154b74cc6bdaad505a82c3e11891dc1d3094d84a1ed43",
}


@pytest.mark.parametrize("name", sorted(PARTITION_SPECS))
def test_process_partition_result_is_pinned(capsys, tmp_path, name):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "joint", "b_size": 2, "a_size": 2,
                                "base": PARTITION_SPECS[name]}))
    code, payload = run_json(capsys, [
        "process", str(path), "--op", "partition", "--n", "4",
        "--epsilon", "0.3", "--r", "0.6", "--seed", "5"])
    assert code == 0
    result = payload["result"]
    assert len(result["tc_by_string"]) == 16
    assert bool(result["good_strings"]) == (name != "hidden")
    blob = json.dumps(result, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == PARTITION_RESULT_DIGESTS[name]
