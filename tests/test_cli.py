import csv
import io
import json

import pytest

from sunflowers.cli import main
from sunflowers.constructions import block_product_family
from sunflowers.families import load_family


@pytest.fixture
def block22(tmp_path):
    path = tmp_path / "block22.json"
    assert main(["construct", "block-product", "--k", "2", "--r", "2", "--out", str(path)]) == 0
    return path


def test_construct_block_product_writes_family(block22):
    assert load_family(block22) == block_product_family(2, 2)[0]


def test_construct_erdos_rado_matches_block_product(tmp_path, block22):
    path = tmp_path / "er.json"
    assert main(["construct", "erdos-rado", "--p", "3", "--k", "2", "--out", str(path)]) == 0
    assert load_family(path) == load_family(block22)


def test_construct_over_cap_is_refused(capsys):
    rc = main(["construct", "block-product", "--k", "30", "--r", "3"])
    assert rc == 2
    assert "stream" in capsys.readouterr().err


def test_check_spread_exit_codes(block22, capsys):
    assert main(["check-spread", str(block22), "--r", "2.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["certified"] and payload["spreadness"] == 2.0
    assert main(["check-spread", str(block22), "--r", "1.5"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["violation"]["count"] == 2


def test_estimate_hit_json_and_determinism(block22, capsys):
    args = ["estimate-hit", str(block22), "--delta", "0.5"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second  # identical invocation, identical bytes
    payload = json.loads(first)
    assert payload["p_hat"] == 0.5625 and payload["method"] == "enumeration"


def test_estimate_hit_csv_row(block22, capsys):
    rc = main(
        [
            "estimate-hit",
            str(block22),
            "--delta",
            "0.5",
            "--method",
            "monte-carlo",
            "--trials",
            "2000",
            "--seed",
            "9",
            "--format",
            "csv",
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "schema_version,family_id,delta,method,p_hat,ci,trials,seed"
    fields = lines[1].split(",")
    assert fields[0] == "1" and fields[1] == "block22" and fields[6] == "2000"


def test_partition_command(block22, capsys):
    rc = main(["partition", str(block22), "--classes", "4", "--trials", "500", "--seed", "3"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["classes"] == 4 and payload["trials"] == 500
    assert sum(payload["hit_class_histogram"]) == 500


def test_verify_partition_mean(block22, capsys):
    rc = main(
        [
            "verify",
            "partition-mean",
            "--family",
            str(block22),
            "--classes",
            "4",
            "--trials",
            "20000",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0 and out.strip().endswith("PASS")


def test_verify_tightness_pass_and_fail(capsys):
    assert main(["verify", "tightness", "--k", "16", "--r", "1", "--delta", "0.5", "--eps", "0.5"]) == 0
    capsys.readouterr()
    # r = 2 is outside the regime for k = 2: nothing to verify, FAIL exit
    assert main(["verify", "tightness", "--k", "2", "--r", "2", "--delta", "0.5", "--eps", "0.5"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_decomposition(block22, capsys):
    rc = main(["verify", "decomposition", "--family", str(block22), "--delta", "0.5"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_chernoff(capsys):
    assert main(["verify", "chernoff", "--n", "16", "--delta", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "0.0384063720703125" in out and "PASS" in out


@pytest.mark.parametrize("half", [["--r", "10"], ["--eps", "0.5"]])
def test_verify_chernoff_half_rate_check_exits_2(half, capsys):
    assert main(["verify", "chernoff", "--n", "16", "--delta", "0.5", *half]) == 2
    captured = capsys.readouterr()
    assert "together" in captured.err and "PASS" not in captured.out


def test_find_sunflower_trace(block22, capsys):
    rc = main(["find-sunflower", str(block22), "--p", "2"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sunflower"] is not None
    assert len(payload["sunflower"]["petals"]) == 2


def test_find_sunflower_failure_exit(tmp_path, capsys):
    path = tmp_path / "er32.json"
    main(["construct", "erdos-rado", "--p", "3", "--k", "2", "--out", str(path)])
    capsys.readouterr()
    rc = main(["find-sunflower", str(path), "--p", "3"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["sunflower"] is None and payload["steps"]


def test_exact_sun_csv(capsys):
    rc = main(["exact-sun", "--p", "3", "--k", "2", "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "schema_version,p,k,value_or_bracket,exhaustive,nodes"
    fields = lines[1].split(",")
    assert fields[1:4] == ["3", "2", "7"] and fields[4] == "True"


def test_exact_sun_csv_is_byte_reproducible(capsys):
    argv = ["exact-sun", "--p", "3", "--k", "3", "--max-nodes", "2000", "--format", "csv"]
    outputs = []
    for _ in range(2):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out.encode())
    assert outputs[0] == outputs[1]
    header, row = csv.reader(io.StringIO(outputs[0].decode()))
    assert header == ["schema_version", "p", "k", "value_or_bracket", "exhaustive", "nodes"]
    assert row[1:3] == ["3", "3"] and row[4:] == ["False", "2000"]
    assert row[3].startswith("[") and row[3].endswith("]")


def test_negative_budgets_exit_2(block22, capsys):
    assert main(["find-sunflower", str(block22), "--p", "2", "--fallback-cap", "-1"]) == 2
    assert "fallback_bruteforce_cap" in capsys.readouterr().err
    assert main(["find-sunflower", str(block22), "--p", "2", "--trials", "-3"]) == 2
    assert "max_partition_trials" in capsys.readouterr().err
    assert main(["exact-sun", "--p", "3", "--k", "2", "--max-nodes", "-1"]) == 2
    assert "max_nodes" in capsys.readouterr().err


@pytest.mark.parametrize("command,name", [
    (["check-spread", "FAMILY", "--r", "inf"], "r"),
    (["find-sunflower", "FAMILY", "--p", "2", "--C", "inf"], "C"),
    (["find-sunflower", "FAMILY", "--p", "2", "--r-override", "inf"], "r_override"),
    (["estimate-hit", "FAMILY", "--delta", "0.5", "--method", "monte-carlo", "--trials", "100", "--threads", "0"],
     "threads"),
    (["estimate-hit", "FAMILY", "--delta", "0.5", "--method", "monte-carlo", "--trials", "100", "--threads", "-3"],
     "threads"),
    (["estimate-hit", "FAMILY", "--delta", "0.5", "--threads", "0"], "threads"),
    (["estimate-hit", "FAMILY", "--delta", "0.5", "--method", "enumeration", "--threads", "-3"], "threads"),
    (["estimate-hit", "FAMILY", "--delta", "0.5", "--method", "inclusion-exclusion", "--threads", "0"], "threads"),
    (["verify", "chernoff", "--n", "16", "--delta", "0.5", "--r", "nan", "--eps", "0.5"], "r"),
    (["verify", "chernoff", "--n", "16", "--delta", "0.5", "--r", "inf", "--eps", "0.5"], "r"),
])
def test_non_finite_values_and_thread_counts_exit_2(block22, capsys, command, name):
    assert main([str(block22) if arg == "FAMILY" else arg for arg in command]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {name} must be") and captured.out == ""


def test_exact_sun_witness_out(tmp_path, capsys):
    witness = tmp_path / "witness.json"
    rc = main(["exact-sun", "--p", "3", "--k", "2", "--witness-out", str(witness)])
    assert rc == 0
    fam = load_family(witness)
    assert len(fam) == 6


def test_exact_sun_witness_out_creates_directories(tmp_path, capsys):
    witness = tmp_path / "nested" / "dir" / "witness.json"
    rc = main(["exact-sun", "--p", "3", "--k", "2", "--witness-out", str(witness)])
    assert rc == 0
    assert len(load_family(witness)) == 6


@pytest.mark.parametrize(
    "command", [["check-spread", "--r", "2"], ["find-sunflower", "--p", "2"]]
)
def test_missing_family_file_exits_2(tmp_path, capsys, command):
    # 1 is the "not certified" / "no sunflower" verdict, so an unreadable file must not exit 1
    missing = tmp_path / "missing.json"
    assert main([command[0], str(missing), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "missing.json" in captured.err


@pytest.mark.parametrize(
    "command", [["check-spread", "--r", "2"], ["find-sunflower", "--p", "2"]]
)
def test_deeply_nested_family_file_exits_2(tmp_path, capsys, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert main([command[0], str(deep), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "deep.json" in captured.err


def test_clopper_pearson_with_csv_exits_2(block22, capsys):
    args = ["estimate-hit", str(block22), "--delta", "0.5", "--method", "monte-carlo", "--trials", "1000"]
    assert main([*args, "--clopper-pearson", "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "--clopper-pearson" in captured.err and "--format csv" in captured.err


def test_out_dir_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SUNFLOWERS_OUT_DIR", str(tmp_path))
    rc = main(["construct", "block-product", "--k", "1", "--r", "2", "--out", "sub/fam.json"])
    assert rc == 0
    capsys.readouterr()
    assert (tmp_path / "sub" / "fam.json").exists()
