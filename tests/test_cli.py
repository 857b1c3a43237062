"""CLI contracts: JSON shapes, round trips, determinism, exit codes."""
import json
import math

import pytest

from hamconc.cli import run
from hamconc.measures import dump_measure, load_measure, measure_from_dict

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


def test_invalid_measure_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"alphabet_size": 2, "dimension": 2,
         "atoms": [{"word": [0, 5], "mass": 1.0}]}))
    code = run(["info", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert "atoms[0].word" in payload["error"]["message"]


def test_removed_knobs_exit_2(capsys, diag_file):
    assert run(["decompose-b", diag_file, "--constants", "cC=1"]) == 2
    assert "unknown constant" in json.loads(capsys.readouterr().out)["error"]["message"]
    assert run(["--threads", "2", "info", diag_file]) == 2
    capsys.readouterr()
    code, payload = run_json(capsys, ["decompose-b", diag_file])
    assert code == 0
    removed = {"c_C", "mix_denominator", "approx_transport", "threads",
               "max_cells", "carve_retries", "dec_denominator",
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


@pytest.mark.parametrize("constants", ["c=nan", "cB=0", "c=-1", "cB=inf"])
def test_bad_pipeline_constants_exit_2(capsys, diag_file, constants):
    for command in ("decompose-b", "partition-c"):
        code, payload = run_json(capsys, [command, diag_file,
                                          "--constants", constants])
        assert code == 2
        assert payload["error"]["type"] == "validation"


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
