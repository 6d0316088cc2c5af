import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import marginlab
from marginlab import cli
from marginlab.cli import (
    EXIT_CAP,
    EXIT_DOMAIN,
    EXIT_NEGATIVE_RESULT,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from marginlab.errors import CapExceededError, DomainError, SizingError


# SHA-256 of every file a small run writes, config.json aside, and of its
# stdout: one run per experiment (trajectory and universality twice) plus
# thresholds, solve and count-tuples.  The tuple-count CSV is hashed without
# its wall-clock seconds column, and count-tuples stdout, which prints the
# seconds, is not pinned.
GOLDEN_RUNS = {
    "majority-stability": (
        ["experiment", "majority-stability", "--n", "500", "--k-rows", "10", "--tau",
         "0.2", "--trials", "8", "--seed", "7"],
        {
            "majority_stability_n500_alpha0.02_kappa0_seed7.csv":
                "a3894883a710c2ffd8b9f45438bc2470da6d38a8a69eb92cf2bb265a715aa836",
            "majority_stability_n500_alpha0.02_kappa0_seed7_summary.json":
                "f66b18c7a2f15e36ecd56ff915f62c816b71a45ca1f358e53ef64ce930c3a0de",
            "stdout":
                "64055f3a1225b6fdf3c19022556f80925683e01ffa761f01cf86490d2fa3afa7",
        },
    ),
    "kim-roche-stability": (
        ["experiment", "kim-roche-stability", "--n", "2000", "--alpha", "0.01", "--tau",
         "0.3", "--trials", "3", "--seed", "1"],
        {
            "kim_roche_stability_n2000_alpha0.01_kappa1_seed1.csv":
                "82250f915f18a90e3fdf4d4ce425e6de8d233e0ab64f15098b28a2e76b0407c4",
            "kim_roche_stability_n2000_alpha0.01_kappa1_seed1_summary.json":
                "9570e18ddcdb97fb2a1016ecd6125a4c3f2db1f0d4b6a5a2bf2e3d326ad5bae9",
            "stdout":
                "7c3fdbf3b913bec538fdb5fde3b66364f84c7c9a62c1a9d4370e91385937709d",
        },
    ),
    "trajectory-kim_roche": (
        ["experiment", "trajectory", "--solver", "kim_roche", "--n", "1000", "--alpha",
         "0.01", "--replicas", "2", "--q-steps", "2", "--seed", "2"],
        {
            "trajectory_kim_roche_n1000_alpha0.01_kappa1_seed2.csv":
                "623234a4224954a0c2e6eb0c251b82c02492a0a61cc7a79dff925e1daf445be3",
            "trajectory_kim_roche_n1000_alpha0.01_kappa1_seed2_summary.json":
                "6ddf3f78990cf5f85c37ed283b135dea2502183eeb822f1919343064aa032d86",
            "stdout":
                "fde792c1b7ac8a83cdfa0544c4a074143019ce138641fe36412176e6e706606e",
        },
    ),
    "trajectory-online_greedy": (
        ["experiment", "trajectory", "--solver", "online_greedy", "--n", "200",
         "--alpha", "0.25", "--kappa", "1.5", "--replicas", "2", "--q-steps", "3",
         "--seed", "3"],
        {
            "trajectory_online_greedy_n200_alpha0.25_kappa1.5_seed3.csv":
                "dc78bc48563a9bc3f866603997c10652ac61cbc9eff4f40c348282da94f831ab",
            "trajectory_online_greedy_n200_alpha0.25_kappa1.5_seed3_summary.json":
                "cf7c369f23ae4e0a46189cf26a2c67c61c9067e66fc80f9675d7099c5fe8bc48",
            "stdout":
                "3ce89a5a97a6df7992f180c3d77f39e404bcde7e1a9529323bd9aba8294d3c26",
        },
    ),
    "census": (
        ["experiment", "census", "--n", "12", "--alpha", "0.25", "--delta", "0.1",
         "--trials", "4", "--seed", "4"],
        {
            "census_n12_alpha0.25_kappa1_seed4.csv":
                "b002a765ce08916d78772b336363b758d1a886921f8e81f572ede9e841e238ba",
            "census_n12_alpha0.25_kappa1_seed4_summary.json":
                "c35d8667a24ad57210bba19c6648e930fff583217b83fada9af82c246021d324",
            "stdout":
                "4fe5601ce3074bfdb13943eddbe8df1f15d83c6462f9c3515c81aee95403b7fe",
        },
    ),
    "two-stage": (
        ["experiment", "two-stage", "--n", "200", "--alpha", "0.25", "--delta", "0.1",
         "--trials", "4", "--strategy", "exp_potential", "--seed", "5"],
        {
            "two_stage_exp_potential_n200_alpha0.25_kappa1_seed5_summary.json":
                "223d308fca074dc650c6519d5ce85933f6779fcdc7ebbd12fad59c807809e9b7",
            "stdout":
                "42e5bc7a27bb3c1a472e5746a4e08b61097c8e08599f7562685b09934819179c",
        },
    ),
    "universality-m1": (
        ["experiment", "universality", "--sizes", "50,100", "--kappa", "0.6745",
         "--trials", "2000", "--seed", "6"],
        {
            "universality_n50-100_kappa0.6745_seed6.csv":
                "5aab5a97c41e99779f58c81c78e1fbc793bd2f021c476c4c198d8cf055b08d48",
            "universality_n50-100_kappa0.6745_seed6_summary.json":
                "cd807d86d23deeaefe8033df19663c8cbc9c853a5069ca2a45885a33d551d0b0",
            "stdout":
                "341ac1dd994938553cc2ca3caa945e27a7584816dedde5888cf0a38bbd2fc6a3",
        },
    ),
    "universality-m2": (
        ["experiment", "universality", "--sizes", "52,100", "--kappa", "1.0", "--m", "2",
         "--beta", "0.5", "--trials", "2000", "--seed", "6"],
        {
            "universality_n52-100_kappa1_seed6.csv":
                "5652a92b942da03015f41d7d00677049193314d5c7cde8aa741f6fd856836cdf",
            "universality_n52-100_kappa1_seed6_summary.json":
                "f5f68cc90f94fd11b19173714f869e359cd46f4787699741560c4371bc92badd",
            "stdout":
                "6703a137129beccd7aaa32eaef56d5d7e25d9c10e829883238ee54b86ccec410",
        },
    ),
    "stable-params": (
        ["experiment", "stable-params", "--kappa", "0.01", "--alpha", "0.001", "--m",
         "2", "--eta", "1e-5"],
        {
            "stable_params.json":
                "0f878848fa9759ef7a6134faa1d64d0a05a951fe6502cd31019c9a4afbd8c7be",
            "stdout":
                "f1c23e2e13df0055bc38daf739264cb647811d2a2740994f3b66fc5258fd4614",
        },
    ),
    "thresholds": (
        ["thresholds", "--which", "f3", "--alpha", "1.667", "--lo", "0.9", "--hi",
         "0.999", "--step", "0.001"],
        {
            "scan_f3_alpha1.667.csv":
                "3a9cb52bfe0ecebf3cd7d50fe4c779374b5650e3910587a1b0ac43ae3a5a5343",
            "scan_f3_alpha1.667_summary.json":
                "a34471d991a180f7505570c6ba3edf98f262bc39f53d1fcebbf78e8d188c7ab2",
            "stdout":
                "c7c60ac4fca60ea0e87e0c3f9625b4ce6c0311e896482de1b2befd2c4da470ae",
        },
    ),
    "solve-kim-roche": (
        ["solve", "--algo", "kim-roche", "--n", "2000", "--alpha", "0.01", "--seed", "5",
         "--dump-matrix"],
        {
            "matrix.bin":
                "133a03d0dd27ff306a0f1ac1c2990c933b3769c2c2744fe712e8c69d80a23a1f",
            "solution.json":
                "b85c96bdf21071be487e0c7e8a7c00bf3fe7faef301b7e5a2500a930ca45f27f",
            "trace.json":
                "2eaa887bd0afe00230e527765690fd3fb0bca74e0fa0299eb7a29f258cfe1d71",
            "stdout":
                "4026e1903f33e9af3a0935e166d109503b5e7d0ca8842fda59829a9923a80c0f",
        },
    ),
    "solve-online-greedy": (
        ["solve", "--algo", "online-greedy", "--n", "400", "--alpha", "0.25", "--seed",
         "7"],
        {
            "solution.json":
                "fbaa147ec2bc79ac9f47e545a50d91761147501dec31beac9139638b2efc9145",
            "trace.json":
                "f01985a3aecd3a34b54e97b9966010399bbd412518a2ef6e4d351a7e13c370dd",
            "stdout":
                "81488a65073eae991d305f072f18b22cbf698c9e95f9579bec809b23e3ef29ed",
        },
    ),
    "solve-online-exp": (
        ["solve", "--algo", "online-exp", "--n", "400", "--alpha", "0.25", "--seed", "7"],
        {
            "solution.json":
                "af78d5c44247655100e15a643fb5c2e2ada5069bfc6804193438b2130ce4339f",
            "trace.json":
                "e5ee84a844252f94fecab083f79cbca843b62a1ffa0a314138835bbfdf8eb616",
            "stdout":
                "c13f7604727542ab2ce19d4cf9a2709f3188fa0b24894ed20ed3d0d8080b7dd7",
        },
    ),
    "solve-exhaustive": (
        ["solve", "--algo", "exhaustive", "--n", "14", "--alpha", "0.5", "--kappa",
         "1.5", "--seed", "1"],
        {
            "solution.json":
                "d40dd6bb0ed38ca53ade41755f2118828fecba00ce0b2f7b994b8976287b9bc9",
            "stdout":
                "14afc6e391d90ff9c797adcd2317fb3c508f8e4d513325122b9a13b6d9a716c6",
        },
    ),
    "count-tuples": (
        ["count-tuples", "--n", "10", "--m", "2", "--beta", "0.6", "--eta", "0.2"],
        {
            "tuple_counts_n10_m2.csv":
                "c6c735002f5299b82d0231c9628419f95d110f6a24ad945cf5ef9ce6ee179773",
        },
    ),
}


def _digests(out_dir, stdout: str | None) -> dict[str, str]:
    digests = {}
    for path in sorted(out_dir.iterdir()):
        if path.name == "config.json":
            continue
        data = path.read_bytes()
        if path.name.startswith("tuple_counts_"):
            data = b"".join(line.rsplit(b",", 1)[0] + b"\r\n" for line in data.splitlines())
        digests[path.name] = hashlib.sha256(data).hexdigest()
    if stdout is not None:
        digests["stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
    return digests


# Runs that exit 2 with a clean negative result, pinned the same way.
NEGATIVE_RUNS = {
    "thresholds-negative": (
        ["thresholds", "--which", "f3", "--alpha", "1.5"],
        {
            "scan_f3_alpha1.5.csv":
                "a9d3ec938c7e0a2e492dd86812af7fabd8e8a9ab5ba070f9c54b86c1532848f6",
            "scan_f3_alpha1.5_summary.json":
                "bea3958e5d16f9fab4330767b698115ff68c11356dbcd6b114af71c7ba8afc80",
            "stdout":
                "db48d524f809abd7c5fc2986b41d561a15ba4feb125abd14a37536962e4e8e91",
        },
    ),
    "solve-exhaustive-none": (
        ["solve", "--algo", "exhaustive", "--n", "12", "--alpha", "2", "--kappa", "0.05"],
        {
            "stdout":  # "no satisfying configuration\n"
                "18efed276c8c87d2e3b95acb3a721ef5e77c853f5f424a27aceec14025b43949",
        },
    ),
}


@pytest.mark.parametrize("case", list(GOLDEN_RUNS | NEGATIVE_RUNS))
def test_outputs_golden_digest(tmp_path, capsys, case):
    argv, want = (GOLDEN_RUNS | NEGATIVE_RUNS)[case]
    capsys.readouterr()
    code = EXIT_NEGATIVE_RESULT if case in NEGATIVE_RUNS else EXIT_OK
    assert main(argv + ["--out-dir", str(tmp_path)]) == code
    assert (tmp_path / "config.json").exists()
    stdout = capsys.readouterr().out
    assert _digests(tmp_path, None if argv[0] == "count-tuples" else stdout) == want


# SHA-256 of config.json for every run above.  Each runs in its own directory
# with ``--out-dir out``, so the file holds no absolute path, and the package
# version is blanked before hashing, so a release does not re-pin them.
CONFIG_DIGESTS = {
    "majority-stability": "2847da23a5809a13ae335a0d151660ba1f7e4738d640824579a721edff97d9dd",
    "kim-roche-stability": "e11a80e8a33d7972c8cc500a5b168b2e79ce3540884b78a6727cefd46b5513f7",
    "trajectory-kim_roche": "f7d5ab623662f8a071f6b734d8616ddac3e529166494cb69a53931e06b8bf6fb",
    "trajectory-online_greedy":
        "077c206416327a1d8deb47fa17c9e07ceb30493ed3c09c94805c7b7d6309f2ff",
    "census": "12a0080cb058f6d7a161f5e34d06156139836a77c66a02754742836e62ec4fc1",
    "two-stage": "473cf68b59b9519b6615b33163100b05335ea33dccfbdb582bbad0ea5612cd14",
    "universality-m1": "265fa32ef8db56b15a6bd7ddb07d0061e10ea2efe247a1eb7212d82aeee8f9b7",
    "universality-m2": "c09e565512ebe7d3206dda1e6b19fc2c4412be5529df068f96916bb34b9eaf4c",
    "stable-params": "2e2857aad7db3a20ae08dc6f216a3a554446c3fd3211d87f3368a173e53228b3",
    "thresholds": "6570f5a2c80a18199cd2161e00024d09a52cf63be1d188e2d8f1e0a6ab60e3d6",
    "solve-kim-roche": "b64fc2de79fa95ee183259533ab3f83481411fb96824b27d694da5f5d37fc43c",
    "solve-online-greedy": "79f13f4320c89475bb280243d16f9fe54fa0f65e56a57f6a1d4b6ac4694f22c1",
    "solve-exhaustive": "acdbf2ee96783adfdd1ccec2a434fcf0ab13b52c04cc0a35ef6bdfd75806d981",
    "count-tuples": "b5d541b38260968d84e8b2e3ae1b533e2aaea94e6cda35ee59efacdf61c4866d",
    "thresholds-negative": "1135a4877fb3c014608b26f00c1e38336420f8fa0c927cf6fcffd8cf50e6b913",
    "solve-exhaustive-none": "e241bc0eddaf007929f2468e0058ff3d953ed3564bd44aa4264bb4ac617652a2",
}


@pytest.mark.parametrize("case", list(CONFIG_DIGESTS))
def test_config_json_golden_digest(tmp_path, monkeypatch, capsys, case):
    argv = (GOLDEN_RUNS | NEGATIVE_RUNS)[case][0]
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out-dir", "out"]) in (EXIT_OK, EXIT_NEGATIVE_RESULT)
    capsys.readouterr()
    data = (tmp_path / "out" / "config.json").read_bytes()
    data = data.replace(f'"version": "{marginlab.__version__}"'.encode(), b'"version": ""')
    assert hashlib.sha256(data).hexdigest() == CONFIG_DIGESTS[case]


# SHA-256 of the stdout of each mvn operation; mvn writes no files.
MVN_STDOUT_DIGESTS = {
    "quadrant": (["--quadrant", "0.3"],
                 "3242ef6b8c86dad145217af4deee6e0d679b91d7ff1f2274beda92eb05c20942"),
    "conditional-mean": (["--conditional-mean", "-0.4"],
                         "9aab0674256dfd169d0661b6c02c5a87af3e67f6628cdadca59fa3745d20394e"),
    "cdf": (["--cdf", "1.5"],
            "d053f8fadf218745c539095eae4ef54a4b09c3606bdddffb4d472291c46229f9"),
    "box": (["--box", "--m", "3", "--beta", "0.978", "--kappa", "1.0"],
            "e70573473aaea3183a84b3237e8d2ea9ab9437da97a99d2fa8b5c5aa4e1fad57"),
    "upper-bound": (["--upper-bound", "--m", "3", "--beta", "0.5", "--kappa", "0.2"],
                    "60df31acef7a66bf5cc0540a7a17ccdf89997d9a8997fb08f60970604c366072"),
}


@pytest.mark.parametrize("case", list(MVN_STDOUT_DIGESTS))
def test_mvn_stdout_golden_digest(capsys, case):
    argv, want = MVN_STDOUT_DIGESTS[case]
    capsys.readouterr()
    assert main(["mvn", *argv]) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want


def test_thresholds_success_writes_outputs(tmp_path, capsys):
    code = main(["thresholds", "--which", "f3", "--alpha", "1.667",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "argmin=0.978" in out
    csv_path = tmp_path / "scan_f3_alpha1.667.csv"
    summary_path = tmp_path / "scan_f3_alpha1.667_summary.json"
    assert csv_path.exists() and summary_path.exists()
    summary = json.loads(summary_path.read_text())
    assert summary["argmin_abscissa"] == pytest.approx(0.978)
    config = json.loads((tmp_path / "config.json").read_text())
    assert config["command"] == "thresholds"
    assert config["parameters"]["alpha"] == 1.667


def test_thresholds_negative_result_exit(tmp_path):
    code = main(["thresholds", "--which", "f3", "--alpha", "1.5",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_NEGATIVE_RESULT


def test_usage_errors(tmp_path, capsys):
    assert main(["thresholds", "--which", "f9", "--alpha", "1.0"]) == EXIT_USAGE
    assert main(["nonsense"]) == EXIT_USAGE
    assert main(["mvn"]) == EXIT_USAGE  # no operation chosen
    capsys.readouterr()


def test_domain_error_exit(capsys):
    assert main(["mvn", "--box", "--m", "2", "--beta", "1.5"]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert "domain error" in err


def test_cap_exceeded_exit(tmp_path, capsys):
    code = main(["solve", "--algo", "exhaustive", "--n", "30", "--alpha", "0.1",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_CAP
    assert "cap exceeded" in capsys.readouterr().err


def test_csv_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        code = main(["thresholds", "--which", "f1", "--alpha", "1.77",
                     "--lo", "1e-4", "--hi", "2e-2", "--step", "1e-4",
                     "--out-dir", str(d)])
        assert code == EXIT_OK
    name = "scan_f1_alpha1.77.csv"
    assert (a / name).read_bytes() == (b / name).read_bytes()


def test_experiment_csv_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        code = main(["experiment", "majority-stability", "--n", "500",
                     "--k-rows", "10", "--tau", "0.2", "--trials", "8",
                     "--seed", "7", "--out-dir", str(d)])
        assert code == EXIT_OK
    name = "majority_stability_n500_alpha0.02_kappa0_seed7.csv"
    assert (a / name).read_bytes() == (b / name).read_bytes()


def test_out_dir_from_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MARGINLAB_OUT_DIR", str(tmp_path / "envout"))
    code = main(["mvn", "--quadrant", "0.5"])
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip() == "0.33333333333333337"
    code = main(["experiment", "stable-params", "--kappa", "0.01",
                 "--alpha", "0.001", "--m", "2", "--eta", "1e-5"])
    assert code == EXIT_OK
    assert (tmp_path / "envout" / "stable_params.json").exists()
    capsys.readouterr()


def test_solve_writes_solution_and_trace(tmp_path):
    code = main(["solve", "--algo", "kim-roche", "--n", "2000", "--alpha",
                 "0.01", "--seed", "5", "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    sol = json.loads((tmp_path / "solution.json").read_text())
    assert sol["n"] == 2000
    assert len(sol["signs"]) == 2000
    assert set(sol["signs"]) <= {"+", "-"}
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert sum(r["block_size"] for r in trace["rounds"]) == 2000
    assert all(k % 2 == 1 for k in trace["schedule"]["k"])


def test_solve_online_reports_feasibility(tmp_path):
    code = main(["solve", "--algo", "online-greedy", "--n", "400", "--alpha",
                 "0.25", "--kappa", "1.0", "--seed", "7",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    sol = json.loads((tmp_path / "solution.json").read_text())
    assert sol["reported_feasible"] == sol["feasible_two_sided"]


def test_mvn_box_output(capsys):
    assert main(["mvn", "--box", "--m", "3", "--beta", "0.978",
                 "--kappa", "1.0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("0.62046698887923")
    assert "factor_quadrature" in out


def test_count_tuples_matches_library(tmp_path, capsys):
    from marginlab.landscape import count_overlap_tuples_exact

    code = main(["count-tuples", "--n", "10", "--m", "2", "--beta", "0.6",
                 "--eta", "0.2", "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    want = count_overlap_tuples_exact(10, 2, 0.6, 0.2)
    assert str(want) in capsys.readouterr().out
    rows = (tmp_path / "tuple_counts_n10_m2.csv").read_text().splitlines()
    assert rows[0] == "n,m,beta,eta,kappa,tau_set_id,count,seconds"
    assert rows[1].startswith(f"10,2,0.6,0.2,0.0,none,{want},")


@pytest.mark.parametrize("method", ["exact", "brute"])
@pytest.mark.parametrize("n", ["0", "-4"])
def test_count_tuples_rejects_nonpositive_n(tmp_path, capsys, n, method):
    argv = ["count-tuples", f"--n={n}", "--m", "2", "--beta", "0.5", "--eta", "0.25",
            "--method", method, "--out-dir", str(tmp_path)]
    assert main(argv) == EXIT_DOMAIN
    assert f"domain error: need n >= 1, got {n}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _run_module(*args: str) -> subprocess.CompletedProcess:
    # The child imports the same package as this process, installed or not.
    src = os.path.dirname(os.path.dirname(marginlab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "marginlab", *args],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})


def test_console_script_entry_point():
    proc = _run_module("--version")
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("marginlab ")


# The flags each experiment reads; its config.json records exactly these plus
# the experiment name and the resolved output directory.
EXPERIMENT_PARAMETERS = {
    "majority-stability": {"n", "k_rows", "tau", "trials", "seed"},
    "kim-roche-stability": {"n", "alpha", "tau", "trials", "seed", "threshold"},
    "trajectory": {"n", "alpha", "kappa", "solver", "replicas", "q_steps", "seed"},
    "census": {"n", "alpha", "delta", "trials", "seed", "kappa"},
    "two-stage": {"n", "alpha", "delta", "trials", "seed", "strategy", "kappa"},
    "universality": {"sizes", "kappa", "m", "beta", "trials", "seed"},
    "stable-params": {"kappa", "alpha", "m", "eta", "sensitivity"},
}


@pytest.mark.parametrize("case", [c for c in GOLDEN_RUNS if GOLDEN_RUNS[c][0][0] == "experiment"])
def test_experiment_config_records_only_its_flags(tmp_path, capsys, case):
    argv = GOLDEN_RUNS[case][0]
    assert main(argv + ["--out-dir", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    config = json.loads((tmp_path / "config.json").read_text())
    assert config["command"] == "experiment"
    params = config["parameters"]
    assert set(params) == EXPERIMENT_PARAMETERS[argv[1]] | {"experiment", "out_dir"}
    assert (params["experiment"], params["out_dir"]) == (argv[1], str(tmp_path))


@pytest.mark.parametrize("name", list(cli.EXPERIMENTS))
def test_every_experiment_runs_with_its_own_defaults(tmp_path, monkeypatch, capsys, name):
    monkeypatch.chdir(tmp_path)
    assert main(["experiment", name]) == EXIT_OK
    capsys.readouterr()
    config = json.loads((tmp_path / "config.json").read_text())
    assert set(config["parameters"]) == EXPERIMENT_PARAMETERS[name] | {"experiment", "out_dir"}


@pytest.mark.parametrize("argv", [
    ["solve", "--algo", "majority", "--n", "200", "--alpha", "0.05", "--seed", "3"],
    ["experiment", "two-stage", "--n", "100", "--alpha", "0.2", "--trials", "2"],
])
def test_config_json_is_byte_identical_across_processes(tmp_path, argv):
    configs = []
    for _ in range(2):
        proc = _run_module(*argv, "--out-dir", str(tmp_path))
        assert proc.returncode == EXIT_OK, proc.stderr
        configs.append((tmp_path / "config.json").read_bytes())
    assert configs[0] == configs[1]
    params = json.loads(configs[0])["parameters"]
    assert "func" not in params and "command" not in params


@pytest.mark.parametrize("argv", [
    ["experiment", "universality", "--n", "5"],
    ["experiment", "kim-roche-stability", "--kappa", "2"],
    ["experiment", "stable-params", "--seed", "1"],
    ["experiment", "nonsense"],
    ["experiment"],
    ["solve", "--algo", "exhaustive", "--n", "12", "--alpha", "0.25", "--n-cap", "25"],
])
def test_experiment_rejects_flags_it_does_not_read(tmp_path, capsys, argv):
    assert main(argv + ["--out-dir", str(tmp_path)]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("sizes", ["50,x", "50,,60", "", "5e1"])
def test_universality_rejects_malformed_sizes(tmp_path, capsys, sizes):
    argv = ["experiment", "universality", "--sizes", sizes, "--out-dir", str(tmp_path)]
    assert main(argv) == EXIT_USAGE
    assert f"usage error: --sizes takes comma-separated integers, got {sizes!r}" in \
        capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("sizes", ["0", "-5", "50,0"])
def test_universality_rejects_nonpositive_sizes(tmp_path, capsys, sizes):
    argv = ["experiment", "universality", f"--sizes={sizes}", "--trials", "100",
            "--out-dir", str(tmp_path)]
    assert main(argv) == EXIT_DOMAIN
    assert "domain error: sizes must be positive" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_universality_refuses_an_oversized_size_before_allocating(tmp_path, capsys, monkeypatch):
    # n = 2^27 + 1 makes the 1 x n sign tuple one entry too many; the size is
    # refused before anything of that size, or any sample, is allocated.
    def refuse(*args, **kwargs):
        raise AssertionError("allocated")

    monkeypatch.setattr(np, "ones", refuse)
    monkeypatch.setattr(np, "empty", refuse)
    argv = ["experiment", "universality", "--sizes", "134217729", "--trials", "100",
            "--out-dir", str(tmp_path)]
    assert main(argv) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds the limit of 134217728 entries" in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["solve", "--algo", "majority", "--n", "20", "--alpha", "0.5",
     "--seed", str((1 << 64) - 3)],
    ["solve", "--algo", "majority", "--n", "20", "--alpha", "0.5", "--seed", str(1 << 63)],
    ["experiment", "majority-stability", "--n", "100", "--k-rows", "3", "--trials", "2",
     "--seed", str(-(1 << 63) - 1)],
    ["experiment", "universality", "--sizes", "50", "--trials", "100",
     "--seed", str(1 << 63)],
])
def test_seed_outside_int64_is_a_domain_error(tmp_path, capsys, argv):
    assert main(argv + ["--out-dir", str(tmp_path)]) == EXIT_DOMAIN
    assert "domain error" in capsys.readouterr().err
    assert not (tmp_path / "config.json").exists()


# (exit code, n_negative, negative_interval, argmin_abscissa) of the six
# criterion-2 scans of test_scan_csv_golden_digest and of the three scan
# windows the benchmark runs, at both ends of their alpha ranges.  These hold
# across any quadrature change that keeps the values within the error bar.
F1_CRITERION = ["--lo", "1e-05", "--hi", "0.1", "--step", "0.0001"]
F1_WINDOW = ["--lo", "1e-05", "--hi", "0.00991", "--step", "0.0001"]
FROZEN_SCANS = [
    ("f1", "1.77", F1_CRITERION, (0, 65, [0.00201, 0.00841], 0.0046099999999999995)),
    ("f1", "1.62", F1_CRITERION, (2, 0, None, 0.0034100000000000003)),
    ("f2", "1.71", [], (0, 53, [0.935, 0.987], 0.968)),
    ("f2", "1.56", [], (2, 0, None, 0.979)),
    ("f3", "1.667", [], (0, 7, [0.975, 0.981], 0.978)),
    ("f3", repr(1.667 - 0.15), [], (2, 0, None, 0.985)),
    ("f1", "1.7", F1_WINDOW, (2, 0, None, 0.00401)),
    ("f1", "1.8", F1_WINDOW, (0, 99, [0.00011, 0.00991], 0.00481)),
    ("f2", "1.64", [], (2, 0, None, 0.974)),
    ("f2", "1.74", [], (0, 97, [0.9, 0.996], 0.9650000000000001)),
    ("f3", "1.6", [], (2, 0, None, 0.981)),
    ("f3", "1.7", [], (0, 66, [0.93, 0.995], 0.976)),
]


@pytest.mark.parametrize("which,alpha,grid,want", FROZEN_SCANS,
                         ids=[f"{w}-{a}" for w, a, _, _ in FROZEN_SCANS])
def test_scan_certified_sets_are_frozen(tmp_path, capsys, which, alpha, grid, want):
    code = main(["thresholds", "--which", which, "--alpha", alpha, *grid,
                 "--out-dir", str(tmp_path)])
    capsys.readouterr()
    (summary,) = tmp_path.glob("*_summary.json")
    s = json.loads(summary.read_text())
    assert (code, s["n_negative"], s["negative_interval"], s["argmin_abscissa"]) == want


@pytest.mark.parametrize("argv,message", [
    (["thresholds", "--which", "f2", "--alpha", "nan"], "alpha must be finite, got nan"),
    (["thresholds", "--which", "f2", "--alpha", "inf"], "alpha must be finite, got inf"),
    (["thresholds", "--which", "f2", "--alpha", "1.7", "--step", "nan"], "bad grid"),
    (["thresholds", "--which", "f2", "--alpha", "1.7", "--lo", "nan"], "bad grid"),
    (["thresholds", "--which", "f2", "--alpha", "1.7", "--hi", "nan"], "bad grid"),
    (["thresholds", "--which", "f1", "--alpha", "1.7", "--lo=-inf"], "bad grid"),
    (["thresholds", "--which", "f1", "--alpha", "1.7", "--hi", "inf"], "bad grid"),
    (["thresholds", "--which", "f2", "--alpha", "1.7", "--step", "1e-12"],
     "grid of 99000000000 points exceeds the limit of 1000000"),
], ids=["alpha-nan", "alpha-inf", "step-nan", "lo-nan", "hi-nan", "lo-minus-inf", "hi-inf",
        "step-1e-12"])
def test_thresholds_rejects_non_finite_inputs(tmp_path, capsys, argv, message):
    assert main(argv + ["--out-dir", str(tmp_path)]) == EXIT_DOMAIN
    assert f"domain error: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,message", [
    (["--box", "--m", "3", "--beta", "0.9", "--kappa", "nan"],
     "kappa must be nonnegative, got nan"),
    (["--box", "--m", "3", "--beta", "nan"], "beta must be nonnegative, got nan"),
    (["--upper-bound", "--m", "3", "--beta", "0.9", "--kappa", "nan"],
     "kappa must be nonnegative, got nan"),
], ids=["box-kappa", "box-beta", "upper-bound-kappa"])
def test_mvn_rejects_nan_inputs(capsys, argv, message):
    assert main(["mvn", *argv]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"domain error: {message}" in captured.err


@pytest.mark.parametrize("argv", [
    ["--box", "--general", "--m", "3"],
    ["--box", "--budget", "5"],
], ids=["general", "budget"])
def test_mvn_general_integrator_flags_are_gone(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("MARGINLAB_OUT_DIR", str(tmp_path))
    assert main(["mvn", *argv]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("m,beta", [("11586", "0.5"), ("8", "0.9999999999999999")],
                         ids=["large-m", "near-singular-beta"])
def test_mvn_upper_bound_builds_no_matrix(capsys, monkeypatch, m, beta):
    # The bound depends on (m, beta) only through the closed-form determinant:
    # a dim beyond the matrix-size limit and a beta at which a Cholesky of the
    # matrix breaks down are both answered without allocating or factoring.
    def refuse(*args, **kwargs):
        raise AssertionError("matrix path taken")

    monkeypatch.setattr(np, "full", refuse)
    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    assert main(["mvn", "--upper-bound", "--m", m, "--beta", beta, "--kappa", "0.2"]) == EXIT_OK
    captured = capsys.readouterr()
    assert math.isfinite(float(captured.out))
    assert captured.err == ""


def test_main_parses_cleanly_after_usage_errors(tmp_path, capsys):
    # main reuses one parser per process; a parse that failed part-way must
    # leave nothing behind for the next call.
    for argv in (["thresholds", "--alpha", "1.0", "--which", "f9"],
                 ["count-tuples", "--n", "10", "--m", "4", "--beta", "0.6", "--eta", "0.2"],
                 ["experiment", "stable-params", "--kappa", "0.01", "--seed", "1"]):
        assert main(argv + ["--out-dir", str(tmp_path / "bad")]) == EXIT_USAGE
    argv, want = GOLDEN_RUNS["count-tuples"]
    assert main(argv + ["--out-dir", str(tmp_path / "good")]) == EXIT_OK
    capsys.readouterr()
    assert not (tmp_path / "bad").exists()
    assert _digests(tmp_path / "good", None) == want
    config = json.loads((tmp_path / "good" / "config.json").read_text())
    assert config == {"command": "count-tuples", "version": marginlab.__version__, "parameters": {
        "n": 10, "m": 2, "beta": 0.6, "eta": 0.2, "method": "exact",
        "out_dir": str(tmp_path / "good")}}


@pytest.mark.parametrize("argv,message", [
    (["solve", "--algo", "online-greedy", "--n", "40", "--alpha", "0.25", "--kappa", "nan"],
     "kappa must be positive, got nan"),
    (["solve", "--algo", "online-exp", "--n", "40", "--alpha", "0.25", "--kappa", "nan"],
     "kappa must be positive, got nan"),
    (["solve", "--algo", "exhaustive", "--n", "12", "--alpha", "0.25", "--kappa", "nan"],
     "two-sided margin needs kappa >= 0, got nan"),
    (["solve", "--algo", "exhaustive", "--n", "12", "--alpha", "0.25", "--kappa", "nan",
      "--asymmetric"], "one-sided margin needs a number kappa, got nan"),
    (["experiment", "two-stage", "--n", "40", "--alpha", "0.25", "--trials", "2",
      "--kappa", "nan"], "kappa must be positive, got nan"),
    (["experiment", "census", "--n", "10", "--alpha", "0.2", "--trials", "2",
      "--kappa", "nan"], "two-sided margin needs kappa >= 0, got nan"),
    (["solve", "--algo", "majority", "--n", "20", "--alpha", "inf"],
     "alpha must be positive and finite, got inf"),
    (["solve", "--algo", "majority", "--n", "20", "--alpha", "nan"],
     "alpha must be positive and finite, got nan"),
], ids=["online-greedy-kappa-nan", "online-exp-kappa-nan", "exhaustive-kappa-nan",
        "exhaustive-one-sided-kappa-nan", "two-stage-kappa-nan", "census-kappa-nan",
        "solve-alpha-inf", "solve-alpha-nan"])
def test_solvers_reject_non_finite_margins_and_alpha(tmp_path, capsys, argv, message):
    assert main(argv + ["--out-dir", str(tmp_path)]) == EXIT_DOMAIN
    assert f"domain error: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _leaf_parsers(parser, path=()):
    """Yield (subcommand path, parser) for every subcommand that takes flags."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield path, parser
    for action in subparsers:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, path + (name,))


LEAF_PARSERS = dict(_leaf_parsers(cli.build_parser()))


def _leaf(argv: list[str]) -> argparse.ArgumentParser:
    (parser,) = [p for path, p in LEAF_PARSERS.items() if tuple(argv[:len(path)]) == path]
    return parser


def _writes_files(parser: argparse.ArgumentParser) -> bool:
    return any(a.dest == "out_dir" for a in parser._actions)


# Small valid arguments for every subcommand, one entry per mode whose float
# flags reach different code, so each non-finite case below fails on its own
# flag.  An experiment's entry is keyed by its name alone.
VALID_ARGS = {
    "thresholds": ["thresholds", "--which", "f2", "--alpha", "1.7"],
    "mvn-box": ["mvn", "--box", "--m", "3"],
    "mvn-upper-bound": ["mvn", "--upper-bound", "--m", "3"],
    "solve-majority": ["solve", "--algo", "majority", "--n", "200", "--alpha", "0.02"],
    "solve-kim-roche": ["solve", "--algo", "kim-roche", "--n", "200", "--alpha", "0.02"],
    "solve-online-greedy": ["solve", "--algo", "online-greedy", "--n", "40", "--alpha", "0.25"],
    "solve-exhaustive": ["solve", "--algo", "exhaustive", "--n", "12", "--alpha", "0.25"],
    "solve-exhaustive-one-sided": ["solve", "--algo", "exhaustive", "--n", "12", "--alpha",
                                   "0.25", "--asymmetric"],
    "count-tuples": ["count-tuples", "--n", "10", "--m", "2", "--beta", "0.6", "--eta", "0.2"],
    "majority-stability": ["experiment", "majority-stability", "--n", "60", "--k-rows", "3",
                           "--trials", "2"],
    "kim-roche-stability": ["experiment", "kim-roche-stability", "--n", "200", "--alpha",
                            "0.02", "--trials", "1"],
    "trajectory": ["experiment", "trajectory", "--n", "60", "--alpha", "0.1", "--replicas",
                   "2", "--q-steps", "1"],
    "census": ["experiment", "census", "--n", "10", "--alpha", "0.2", "--trials", "1"],
    "two-stage": ["experiment", "two-stage", "--n", "40", "--alpha", "0.25", "--trials", "1"],
    "universality": ["experiment", "universality", "--sizes", "10", "--trials", "100"],
    "stable-params": ["experiment", "stable-params", "--m", "2"],
}
# Non-finite values a subcommand accepts, with the stdout they give; README
# documents each one.
NON_FINITE_ALLOWED = {
    ("mvn", "--cdf", "inf"): "1.0\n",
    ("mvn", "--cdf", "-inf"): "0.0\n",
}
NON_FINITE_FLAGS = [
    (label, action.option_strings[0], action.dest, value)
    for label, argv in VALID_ARGS.items()
    for action in _leaf(argv)._actions if action.type is float
    for value in ("nan", "inf", "-inf")
]


def test_valid_args_cover_every_subcommand(tmp_path, capsys):
    assert sorted({id(_leaf(argv)) for argv in VALID_ARGS.values()}) == \
        sorted(id(p) for p in LEAF_PARSERS.values())
    for argv in VALID_ARGS.values():
        out = ["--out-dir", str(tmp_path)] if _writes_files(_leaf(argv)) else []
        assert main(argv + out) in (EXIT_OK, EXIT_NEGATIVE_RESULT), argv
    capsys.readouterr()


@pytest.mark.parametrize("label,option,dest,value", NON_FINITE_FLAGS,
                         ids=[f"{label}-{d}-{v}" for label, _, d, v in NON_FINITE_FLAGS])
def test_experiments_reject_non_finite_flags(tmp_path, capsys, label, option, dest, value):
    argv = [*VALID_ARGS[label], f"{option}={value}"]
    if _writes_files(_leaf(argv)):
        argv += ["--out-dir", str(tmp_path)]
    code = main(argv)
    captured = capsys.readouterr()
    allowed = NON_FINITE_ALLOWED.get((argv[0], option, value))
    if allowed is not None:
        assert (code, captured.out) == (EXIT_OK, allowed)
        return
    assert code in (EXIT_USAGE, EXIT_DOMAIN)
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


# Integer size flags that each overflowed the first float product they met.
# Only values beyond the float range are fed: a large representable size would
# allocate, and a huge --trials, --replicas or --q-steps would start
# unbounded work.
HUGE_INT_FLAGS = [
    ("stable-params", "--m"),
    ("solve-majority", "--n"),
    ("trajectory", "--n"),
    ("two-stage", "--n"),
    ("kim-roche-stability", "--n"),
    ("majority-stability", "--k-rows"),
    ("count-tuples", "--n"),
    ("mvn-box", "--m"),
    ("mvn-upper-bound", "--m"),
]


@pytest.mark.parametrize("label,option", HUGE_INT_FLAGS,
                         ids=[f"{label}{option}" for label, option in HUGE_INT_FLAGS])
def test_integer_flags_beyond_float_range_are_domain_errors(tmp_path, capsys, label, option):
    argv = [*VALID_ARGS[label], f"{option}={10**400}"]
    if _writes_files(_leaf(argv)):
        argv += ["--out-dir", str(tmp_path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_DOMAIN
    assert "exceeds the float range" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


# Sizes inside the float range whose product with another flag is not.
OVERFLOWING_PRODUCTS = [
    (["solve", "--algo", "majority", "--n", str(10**200), "--alpha", "1e200"],
     "1e+200 * n exceeds the float range"),
    (["solve", "--algo", "kim-roche", "--n", "1000", "--alpha", "0.01", "--d1", "1e-306"],
     "n / (2 * d1) exceeds the float range at d1=1e-306"),
    (["experiment", "stable-params", "--m", "2", "--kappa", "1e308"],
     "these inputs give beta_floor = -inf; it must be finite"),
    (["experiment", "stable-params", "--m", "2", "--sensitivity", "5e-324"],
     "these inputs give pi / (2 q_steps) = inf; it must be finite"),
]


@pytest.mark.parametrize("argv,message", OVERFLOWING_PRODUCTS,
                         ids=["majority", "kim-roche", "stable-params-kappa",
                              "stable-params-sensitivity"])
def test_finite_flags_whose_product_overflows_are_domain_errors(tmp_path, capsys, argv, message):
    code = main(argv + ["--out-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == EXIT_DOMAIN
    assert f"domain error: {message}" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def _edited_matrix_file(tmp_path, edit):
    """load_matrix of a small PDM2 file whose bytes went through ``edit``."""
    path = tmp_path / "matrix.bin"
    marginlab.dump_matrix(marginlab.sample_disorder(4, 0.5), str(path))
    path.write_bytes(edit(path.read_bytes()))
    return marginlab.load_matrix(str(path))


# One input per refusal that nothing else in the suite reaches
# (tests/trace_raises.py lists the raise statements a run never executes):
# name -> (target, error class, message).  A callable target is a library
# call made with tmp_path; a list is an argv whose documented exit code
# follows from the error class.
REFUSALS = {
    "matrix-unknown-dist": (
        lambda tmp: marginlab.DisorderMatrix(np.zeros((1, 2)), "cauchy", 0, 0.5),
        DomainError, "unknown distribution 'cauchy'"),
    "matrix-no-rows": (
        lambda tmp: marginlab.DisorderMatrix(np.zeros((0, 4)), "gaussian", 0, 0.25),
        SizingError, "degenerate shape 0x4"),
    "matrix-no-columns": (
        lambda tmp: marginlab.DisorderMatrix(np.zeros((3, 0)), "gaussian", 0, 0.5),
        SizingError, "degenerate shape 3x0"),
    "sample-unknown-dist": (
        lambda tmp: marginlab.sample_disorder(10, 0.5, "cauchy"),
        DomainError, "unknown distribution 'cauchy'"),
    "interpolate-shapes": (
        lambda tmp: marginlab.interpolate(marginlab.sample_disorder(10, 0.5),
                                          marginlab.sample_disorder(12, 0.5), 0.1),
        SizingError, "shape mismatch (5, 10) vs (6, 12)"),
    "trajectory-q-steps-0": (
        ["experiment", "trajectory", "--q-steps", "0"], DomainError,
        "need at least one step, got q=0"),
    "load-truncated-header": (
        lambda tmp: _edited_matrix_file(tmp, lambda blob: blob[:20]),
        DomainError, "truncated header"),
    "load-dist-tag-2": (
        lambda tmp: _edited_matrix_file(tmp, lambda blob: blob[:20] + (2).to_bytes(8, "little")
                                        + blob[28:]),
        DomainError, "unknown distribution tag 2"),
    "load-one-byte-long": (
        lambda tmp: _edited_matrix_file(tmp, lambda blob: blob + b"\0"),
        DomainError, "expected 116 bytes, found 117"),
    "wilson-no-trials": (
        lambda tmp: marginlab.wilson_interval(0, 0), DomainError, "need at least one trial"),
    "wilson-successes-above-trials": (
        lambda tmp: marginlab.wilson_interval(5, 4), DomainError, "successes 5 outside [0, 4]"),
    "majority-stability-k-rows-0": (
        ["experiment", "majority-stability", "--k-rows", "0"], SizingError,
        "need at least one voting row, got 0"),
    "trajectory-unknown-solver": (
        lambda tmp: marginlab.overlap_trajectory(50, 0.1, 1.0, "simplex", 2, 1, 0),
        DomainError, "unknown solver 'simplex'"),
    "trajectory-one-replica": (
        ["experiment", "trajectory", "--replicas", "1"], SizingError,
        "need at least two replicas, got 1"),
    "universality-m2-without-beta": (
        ["experiment", "universality", "--m", "2"], DomainError, "beta is required for m >= 2"),
    "universality-m4": (
        ["experiment", "universality", "--m", "4", "--beta", "0.5"], DomainError,
        "fixed tuples are built for 1 <= m <= 3, got m=4"),
    "stable-params-m1": (
        ["experiment", "stable-params", "--m", "1"], DomainError,
        "tuple size must be at least 2, got 1"),
    "sign-vector-n0": (
        lambda tmp: marginlab.SignVector(0, 0), DomainError, "need at least one coordinate"),
    "from-signs-empty": (
        lambda tmp: marginlab.SignVector.from_signs([]), DomainError,
        "signs must be a nonempty 1-d sequence"),
    "from-signs-2d": (
        lambda tmp: marginlab.SignVector.from_signs([[1, -1]]), DomainError,
        "signs must be a nonempty 1-d sequence"),
    "from-signs-zero": (
        lambda tmp: marginlab.SignVector.from_signs([1, 0]), DomainError,
        "signs must be +1 or -1"),
    "sign-vector-index-n": (lambda tmp: marginlab.SignVector(3, 0)[3], IndexError, "3"),
    "hamming-sizes": (
        lambda tmp: marginlab.hamming(marginlab.SignVector(3, 0), marginlab.SignVector(4, 0)),
        SizingError,
        "dimension mismatch 3 vs 4"),
    "is-solution-sizes": (
        lambda tmp: marginlab.is_solution(marginlab.sample_disorder(4, 0.5),
                                          marginlab.SignVector(3, 0), 1.0),
        SizingError, "sign vector has 3 coordinates, matrix 4"),
    "count-exact-m4": (
        lambda tmp: marginlab.count_overlap_tuples_exact(10, 4, 0.6, 0.2), DomainError,
        "exact counting supports m in {2, 3}, got 4"),
    "count-brute-m4": (
        lambda tmp: marginlab.count_overlap_tuples_bruteforce(10, 4, 0.6, 0.2), DomainError,
        "brute force supports m in {2, 3}, got 4"),
    "count-brute-n13": (
        ["count-tuples", "--method", "brute", "--n", "13", "--m", "2", "--beta", "0.6",
         "--eta", "0.2"], CapExceededError, "brute force is capped at n <= 12, got n=13"),
    "tuples-m1": (
        lambda tmp: marginlab.enumerate_forbidden_tuples(
            marginlab.sample_disorder(8, 0.25), 1, 0.5, 0.25, 1.0, (0.0,)),
        DomainError, "tuples need m >= 2, got 1"),
    "tuples-kappa0": (
        lambda tmp: marginlab.enumerate_forbidden_tuples(
            marginlab.sample_disorder(8, 0.25), 2, 0.5, 0.25, 0.0, (0.0,)),
        DomainError, "kappa must be positive, got 0.0"),
    "tuples-kappa-nan": (
        lambda tmp: marginlab.enumerate_forbidden_tuples(
            marginlab.sample_disorder(8, 0.25), 2, 0.5, 0.25, math.nan, (0.0,)),
        DomainError, "kappa must be positive, got nan"),
    "tuples-repeated-angle": (
        lambda tmp: marginlab.enumerate_forbidden_tuples(
            marginlab.sample_disorder(8, 0.25), 2, 0.5, 0.25, 1.0, (0.5, 0.5)),
        DomainError, "tau_set must increase strictly, got (0.5, 0.5)"),
    "scan-f9": (
        lambda tmp: marginlab.scan_negativity("f9", 1.0), DomainError, "unknown functional 'f9'"),
    "phi-count-m4": (
        lambda tmp: marginlab.phi_count(0.5, 0.1, 4), DomainError,
        "phi_count supports m in {2, 3}, got 4"),
    "psi-m0": (
        lambda tmp: marginlab.psi_free_energy(1.0, 0.5, 0, 1.0, 0.5), DomainError,
        "m must be at least 1, got 0"),
    "chaos-m0": (
        lambda tmp: marginlab.chaos_exponent(0.5, 1.0, 0), DomainError,
        "m must be at least 1, got 0"),
    "kim-roche-stability-n1": (
        ["experiment", "kim-roche-stability", "--n", "1", "--alpha", "5"], SizingError,
        "schedule needs n >= 2, got n=1"),
}


@pytest.mark.parametrize("target,error,message", REFUSALS.values(), ids=list(REFUSALS))
def test_every_refusal_raises_its_typed_error(tmp_path, capsys, target, error, message):
    if callable(target):
        with pytest.raises(error) as caught:
            target(tmp_path)
        assert message in str(caught.value)
        return
    out = tmp_path / "out"
    code = main([*target, "--out-dir", str(out)])
    captured = capsys.readouterr()
    assert code == (EXIT_CAP if issubclass(error, CapExceededError) else EXIT_DOMAIN)
    assert message in captured.err
    assert captured.out == ""
    assert not out.exists()


# Inputs that each ended in a bare Python exception (exit 1) before they were
# refused, with the message of the refusal that now comes first.
FORMER_CRASHES = {
    "majority-stability-n0": (  # ZeroDivisionError
        ["experiment", "majority-stability", "--n", "0"], "need at least one coordinate, got n=0"),
    "universality-m0": (  # IndexError
        ["experiment", "universality", "--m", "0", "--beta", "0.5"],
        "fixed tuples are built for 1 <= m <= 3, got m=0"),
    "universality-m-1": (  # ValueError
        ["experiment", "universality", "--m", "-1", "--beta", "0.5"],
        "fixed tuples are built for 1 <= m <= 3, got m=-1"),
    "census-n-below-float-range": (  # OverflowError
        ["experiment", "census", f"--n={-10**400}"], "n exceeds the float range"),
    "two-stage-n-below-float-range": (  # OverflowError
        ["experiment", "two-stage", f"--n={-10**400}"], "n exceeds the float range"),
}


@pytest.mark.parametrize("argv,message", FORMER_CRASHES.values(), ids=list(FORMER_CRASHES))
def test_former_crashes_are_domain_errors(tmp_path, capsys, argv, message):
    code = main([*argv, "--out-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == EXIT_DOMAIN
    assert message in captured.err
    assert list(tmp_path.iterdir()) == []
