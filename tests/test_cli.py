import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from sunflowers import cli
from sunflowers.cli import main
from sunflowers.constructions import block_product_family
from sunflowers.families import SetFamily, load_family, save_family
from sunflowers.probability import check_fixed_size_decomposition

README = Path(__file__).resolve().parent.parent / "README.md"


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


@pytest.mark.parametrize(
    "argv", [["block-product", "--k", "3", "--r", "2"], ["erdos-rado", "--p", "3", "--k", "2"]]
)
def test_construct_stdout_is_the_family_file(tmp_path, capsysbinary, argv):
    path = tmp_path / "fam.json"
    assert main(["construct", *argv]) == 0
    printed = capsysbinary.readouterr().out
    assert main(["construct", *argv, "--out", str(path)]) == 0
    assert printed == path.read_bytes() and b"schema_version" not in printed


def test_construct_writes_the_save_family_bytes(tmp_path, capsysbinary):
    saved, out = tmp_path / "saved.json", tmp_path / "out.json"
    save_family(block_product_family(3, 2)[0], saved)
    assert main(["construct", "block-product", "--k", "3", "--r", "2"]) == 0
    assert capsysbinary.readouterr().out == saved.read_bytes()
    assert main(["construct", "block-product", "--k", "3", "--r", "2", "--out", str(out)]) == 0
    assert out.read_bytes() == saved.read_bytes()


def test_module_entry_point_runs_the_cli(capsysbinary):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    argv = ["construct", "block-product", "--k", "2", "--r", "2"]
    version = subprocess.run([sys.executable, "-m", "sunflowers", "--version"], env=env, capture_output=True, timeout=120)
    construct = subprocess.run([sys.executable, "-m", "sunflowers", *argv], env=env, capture_output=True, timeout=120)
    assert version.returncode == 0 and b"sunflowers" in version.stdout
    assert main(argv) == 0
    assert construct.returncode == 0 and construct.stdout == capsysbinary.readouterr().out


def _call(argv, capsysbinary):
    try:
        code = main(argv)
    except SystemExit as exc:  # --help, --version and parser.error leave through argparse
        code = exc.code
    captured = capsysbinary.readouterr()
    return code, captured.out, captured.err


def test_repeated_main_calls_print_what_single_calls_print(tmp_path, monkeypatch, capsysbinary):
    # main builds its parser once per process: each call must print what a call on a fresh parser
    # prints, and the options of one call (--worst, --format csv) must not leak into the next
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the terminal width
    path = tmp_path / "block22.json"
    save_family(block_product_family(2, 2)[0], path)
    runs = [
        (["check-spread", str(path), "--r", "1", "--worst"], 1),
        (["check-spread", str(path), "--r", "2"], 0),
        (["estimate-hit", str(path), "--delta", "0.5", "--format", "csv"], 0),
        (["estimate-hit", str(path), "--delta", "0.5"], 0),
        (["--help"], 0),
        (["check-spread", "--help"], 0),
        (["--version"], 0),
        (["construct", "erdos-rado", "--k", "2"], 2),
        (["check-spread", str(path)], 2),
    ]
    singles = []
    for argv, expected_code in runs:
        cli.build_parser.cache_clear()
        code, out, err = _call(argv, capsysbinary)
        assert code == expected_code and (err if code == 2 else out)
        singles.append((code, out, err))
    assert cli.build_parser() is cli.build_parser()
    for _ in range(2):
        assert [_call(argv, capsysbinary) for argv, _ in runs] == singles


@pytest.mark.parametrize("kind,option", [("block-product", "--r"), ("erdos-rado", "--p")])
def test_construct_without_its_size_option_exits_2(capsys, kind, option):
    with pytest.raises(SystemExit) as exc:
        main(["construct", kind, "--k", "2"])
    assert exc.value.code == 2 and f"requires {option}" in capsys.readouterr().err


def test_construct_over_cap_is_refused(capsys):
    rc = main(["construct", "block-product", "--k", "30", "--r", "3"])
    assert rc == 2
    assert "exceeds the family-size cap" in capsys.readouterr().err


def test_check_spread_exit_codes(block22, capsys):
    assert main(["check-spread", str(block22), "--r", "2.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["certified"] and payload["spreadness"] == 2.0
    assert main(["check-spread", str(block22), "--r", "1.5"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["violation"]["count"] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["check-spread", "{}", "--r", "1e300"],
        ["check-spread", "{}", "--r", "1e300", "--worst"],
        ["find-sunflower", "{}", "--p", "2", "--r-override", "1e300"],
        ["find-sunflower", "{}", "--p", "2", "--C", "1e300"],
    ],
)
def test_spread_threshold_past_the_float_range_certifies(tmp_path, capsys, argv):
    path = tmp_path / "block32.json"
    assert main(["construct", "block-product", "--k", "3", "--r", "2", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main([a.format(path) for a in argv]) == 0
    payload = json.loads(capsys.readouterr().out)
    if argv[0] == "check-spread":
        assert payload["certified"] is True
    else:
        assert payload["steps"][0]["kind"] == "spread" and payload["sunflower"] is not None


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


def test_verify_partition_mean_without_exact_path_exits_2(tmp_path, capsys):
    # block(2,13): n = 26 and |F| = 169, past both exact caps; refused before sampling
    path = tmp_path / "block2x13.json"
    assert main(["construct", "block-product", "--k", "2", "--r", "13", "--out", str(path)]) == 0
    capsys.readouterr()
    rc = main(["verify", "partition-mean", "--family", str(path), "--classes", "4", "--trials", "200000"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: no exact path")


def test_verify_tightness_pass_and_fail(capsys):
    assert main(["verify", "tightness", "--k", "16", "--r", "1", "--delta", "0.5", "--eps", "0.5"]) == 0
    capsys.readouterr()
    # r = 2 is outside the regime for k = 2: nothing to verify, FAIL exit
    assert main(["verify", "tightness", "--k", "2", "--r", "2", "--delta", "0.5", "--eps", "0.5"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_decomposition(block22, tmp_path, capsys):
    out = tmp_path / "decomposition.json"
    assert main(["verify", "decomposition", "--family", str(block22), "--delta", "0.75", "--out", str(out)]) == 0
    assert "PASS" in capsys.readouterr().out
    report = check_fixed_size_decomposition(load_family(block22), 0.75)
    assert json.loads(out.read_text()) == {"schema_version": 1, **asdict(report)}


def test_verify_decomposition_beyond_24_elements(tmp_path, capsys):
    # the counts come from the support, one element here, so n = 25 is no longer refused
    path = tmp_path / "wide.json"
    path.write_text('{"ground_set_size": 25, "k": 1, "sets": [[0]]}')
    assert main(["verify", "decomposition", "--family", str(path), "--delta", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "Pr(hit at delta)        = 0.5\n" in out and "PASS" in out
    assert main(["estimate-hit", str(path), "--delta", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["p_hat"] == 0.5


def test_verify_chernoff(tmp_path, capsys):
    out = tmp_path / "chernoff.json"
    assert main(["verify", "chernoff", "--n", "16", "--delta", "0.5", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "0.0384063720703125" in printed and "PASS" in printed
    payload = json.loads(out.read_text())
    assert set(payload) == {"schema_version", "n", "delta", "threshold", "tail_probability", "bound", "passed"}
    assert payload["tail_probability"] == 2517 / 65536 and payload["passed"] is True
    with pytest.raises(SystemExit) as exc:  # the rate check and its two flags are gone
        main(["verify", "chernoff", "--n", "16", "--delta", "0.5", "--r", "100", "--eps", "0.5"])
    assert exc.value.code == 2 and "unrecognized arguments: --r 100 --eps 0.5" in capsys.readouterr().err


def _readme_commands():
    """The ``sunflowers ...`` lines of the README's "Command line" block, continuations joined."""
    block = re.search(r"## Command line.*?```bash\n(.*?)```", README.read_text(), re.DOTALL).group(1)
    return [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]


README_COMMANDS = _readme_commands()


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_readme_command_exits_0(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SUNFLOWERS_OUT_DIR", raising=False)
    assert argv[0] == "sunflowers"
    for command in (README_COMMANDS[0], argv):  # the first line writes the fam.json the others read
        assert main(command[1:]) == 0


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


def test_find_sunflower_fallback_cap_zero_turns_the_fallback_off(tmp_path, capsys):
    path = tmp_path / "star.json"  # {0,1}, ..., {0,5}: the 3-sunflower's core {0} is only found by the fallback
    save_family(SetFamily(6, 2, [1 | 1 << i for i in range(1, 6)]), path)
    for cap, rc, found in (("0", 1, False), ("1000", 0, True)):
        assert main(["find-sunflower", str(path), "--p", "3", "--fallback-cap", cap]) == rc
        payload = json.loads(capsys.readouterr().out)
        assert payload["fallback_used"] is found and (payload["sunflower"] is not None) is found
    with pytest.raises(SystemExit) as exc:
        main(["find-sunflower", str(path), "--p", "3", "--no-fallback"])
    assert exc.value.code == 2 and "--no-fallback" in capsys.readouterr().err


def test_exact_sun_csv(capsys):
    rc = main(["exact-sun", "--p", "3", "--k", "2", "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "schema_version,p,k,value_or_bracket,exhaustive,nodes"
    fields = lines[1].split(",")
    assert fields[1:4] == ["3", "2", "7"] and fields[4] == "True"


def test_exact_sun_json_reports_nodes_by_depth(capsys):
    assert main(["exact-sun", "--p", "3", "--k", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exact"] == 7 and payload["nodes"] == 64
    assert payload["nodes_by_depth"] == [1, 1, 3, 11, 29, 16, 3]


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
    (["estimate-hit", "FAMILY", "--delta", "0.5", "--method", "monte-carlo", "--trials", "100", "--seed", "-1"],
     "seed"),
    (["estimate-hit", "FAMILY", "--delta", "0.5", "--method", "monte-carlo", "--seed", str(2**64)], "seed"),
    (["partition", "FAMILY", "--classes", "2", "--trials", "10", "--seed", "-1"], "seed"),
    (["partition", "FAMILY", "--classes", "2", "--trials", "10", "--seed", str(2**64)], "seed"),
    (["verify", "partition-mean", "--family", "FAMILY", "--classes", "2", "--trials", "10", "--seed", "-1"], "seed"),
    (["verify", "chernoff", "--n", "100000", "--delta", "0.3"], "n"),
    # seeds that no sampler reads are refused too
    (["estimate-hit", "FAMILY", "--delta", "0.5", "--format", "csv", "--seed", "-1"], "seed"),
    (["find-sunflower", "FAMILY", "--p", "2", "--trials", "0", "--seed", "-5"], "seed"),
])
def test_non_finite_values_and_thread_counts_exit_2(block22, capsys, command, name):
    assert main([str(block22) if arg == "FAMILY" else arg for arg in command]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {name} must be") and captured.out == ""


@pytest.mark.parametrize("n", [2**52, 2**63])
@pytest.mark.parametrize("method", ["auto", "enumeration", "inclusion-exclusion"])
def test_exact_estimates_on_huge_ground_sets(tmp_path, capsys, n, method):
    # the exact paths work on the 2-element support: 1 - (1 - 1/2)^2
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"ground_set_size": n, "k": 1, "sets": [[5], [9]]}))
    assert main(["estimate-hit", str(path), "--delta", "0.5", "--method", method, "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[4] == "0.75"


@pytest.mark.parametrize("argv", [
    ["estimate-hit", "FAMILY", "--delta", "0.5", "--method", "monte-carlo", "--trials", "10"],
    ["partition", "FAMILY", "--classes", "2", "--trials", "10"],
])
def test_samples_past_numpy_index_range_exit_2(tmp_path, capsys, argv):
    # a sample row at n = 2^63 has more entries than numpy can index: refused before any allocation
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"ground_set_size": 2**63, "k": 1, "sets": [[5], [9]]}))
    assert main([str(path) if arg == "FAMILY" else arg for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: a tile of 1 x {2**63} entries exceeds numpy's index range\n" and captured.out == ""


@pytest.mark.parametrize("k,rows,argv", [
    (1, [[5], [9]], ["estimate-hit", "FAMILY", "--delta", "0.5", "--method", "monte-carlo", "--trials", "10"]),
    (1, [[5], [9]], ["partition", "FAMILY", "--classes", "2", "--trials", "10"]),
    (1, [[5], [9]], ["verify", "partition-mean", "--family", "FAMILY", "--classes", "2", "--trials", "10"]),
    (2, [[0, 1], [2, 3]], ["find-sunflower", "FAMILY", "--p", "2"]),
])
def test_unallocatable_arrays_exit_2(tmp_path, capsys, k, rows, argv):
    # at n = 2^52 each of these asks numpy for at least 1 PiB, past the 128 TiB (47-bit)
    # address space of a process, so the allocation fails at once and touches no page
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"ground_set_size": 2**52, "k": k, "sets": rows}))
    assert main([str(path) if arg == "FAMILY" else arg for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: Unable to allocate") and captured.out == ""


def test_threads_flag_is_rejected(block22, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate-hit", str(block22), "--delta", "0.5", "--method", "monte-carlo", "--threads", "2"])
    assert exc.value.code == 2 and "unrecognized arguments: --threads" in capsys.readouterr().err


def test_exact_sun_witness_out(tmp_path, capsys):
    witness = tmp_path / "witness.json"
    rc = main(["exact-sun", "--p", "3", "--k", "2", "--witness-out", str(witness)])
    assert rc == 0
    fam = load_family(witness)
    assert len(fam) == 6
    saved = tmp_path / "saved.json"
    save_family(fam, saved)
    assert witness.read_bytes() == saved.read_bytes()


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
