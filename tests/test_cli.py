"""End-to-end command line runs through `python -m resilkit`.

Covers stdout summaries, JSON/CSV outputs and the 0/1/2 exit code
contract."""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest

import resilkit as rk
from conftest import build_m1, cli_env
from resilkit.cli import build_parser

MODELS = Path(__file__).resolve().parent.parent / "models"


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "resilkit", *argv],
        capture_output=True, text=True, cwd=cwd, env=cli_env(),
    )


def model(name):
    return str(MODELS / name)


def read_json(path):
    return json.loads(Path(path).read_text())


def test_kernel_outputs(tmp_path):
    out = tmp_path / "k"
    proc = run_cli("kernel", "--model", model("m1.model"), "--out", str(out))
    assert proc.returncode == 0
    assert proc.stdout.strip() == "kernel at t=0: 2 3"
    doc = read_json(out / "kernel.json")
    assert doc["command"] == "kernel"
    assert doc["domain"] == "robust"
    assert doc["acceptable"] == ["2", "3"]
    assert doc["members"] == {t: ["2", "3"] for t in ("0", "1", "2", "3")}
    lines = (out / "kernel.csv").read_text().splitlines()
    assert lines[0] == "t,state,member,witness"
    # 4 times x 4 states
    assert len(lines) == 1 + 16
    assert "0,2,1,1" in lines
    assert "0,0,0," in lines


def test_kernel_x0_exit_codes(tmp_path):
    ok = run_cli("kernel", "--model", model("m1.model"), "--x0", "2")
    assert ok.returncode == 0
    bad = run_cli("kernel", "--model", model("m1.model"), "--x0", "0")
    assert bad.returncode == 1


def test_value_outputs(tmp_path):
    out = tmp_path / "v"
    proc = run_cli("value", "--model", model("m1.model"), "--out", str(out))
    assert proc.returncode == 0
    doc = read_json(out / "value.json")
    assert doc["beta"] == 1
    assert doc["values"]["0"] == {"0": 0, "1": 0, "2": 1, "3": 1}
    lines = (out / "value.csv").read_text().splitlines()
    assert lines[0] == "t,state,value,witness,resilient"
    # lowering beta widens the reported resilient set
    loose = run_cli("value", "--model", model("m1.model"),
                    "--beta", "0.5", "--x0", "1")
    assert loose.returncode == 1  # state 1 reaches {2,3} with probability 0
    assert "resilient at t=0 (beta=0.5): 2 3" in loose.stdout


def test_recovery_outputs(tmp_path):
    out = tmp_path / "r"
    proc = run_cli(
        "recovery", "--model", model("m1_benign.model"), "--out", str(out),
        "--x0", "0",
    )
    assert proc.returncode == 0
    doc = read_json(out / "recovery.json")
    assert doc["deadline"] == 3
    assert doc["r_star"] == {"0": 2, "1": 1, "2": 0, "3": 0}
    lines = (out / "recovery.csv").read_text().splitlines()
    assert lines[0] == "t,state,min_layer,resilient,witness"
    # tightening the deadline drops state 0
    tight = run_cli("recovery", "--model", model("m1_benign.model"),
                    "--deadline", "1", "--x0", "0")
    assert tight.returncode == 1
    assert "resilient at t=0 (deadline=1): 1 2 3" in tight.stdout


def test_check_strategy(tmp_path):
    args = ("check", "--model", model("m1.model"),
            "--strategy", model("m1_keep.strategy"))
    good = run_cli(*args, "--x0", "2", "--out", str(tmp_path))
    assert good.returncode == 0
    assert good.stdout.strip() == "resilient: yes"
    assert read_json(tmp_path / "check.json")["resilient"] is True
    bad = run_cli(*args, "--x0", "0")
    assert bad.returncode == 1
    assert bad.stdout.strip() == "resilient: no"


def test_resilient_set_outputs(tmp_path):
    out = tmp_path / "rs"
    proc = run_cli("resilient-set", "--model", model("m1.model"),
                   "--out", str(out))
    assert proc.returncode == 0
    assert proc.stdout.strip() == "resilient at t=0 [kernel]: 2 3"
    doc = read_json(out / "resilient_set.json")
    assert doc["members"] == ["2", "3"]
    assert doc["method"] == "kernel"
    # the emitted witnesses are readable strategy files
    m1 = build_m1()
    for text in doc["witnesses"].values():
        strat = rk.strategy_from_text(m1, text)
        assert rk.check_resilient(m1, strat, 2, 0, rk.Viability({2, 3}))
    lines = (out / "resilient_set.csv").read_text().splitlines()
    assert lines[0] == "state,member"
    assert lines[1:] == ["0,0", "1,0", "2,1", "3,1"]


def test_optimize_outputs(tmp_path):
    out = tmp_path / "opt"
    proc = run_cli("optimize", "--model", model("m1_effort.model"),
                   "--x0", "2", "--out", str(out))
    assert proc.returncode == 0
    assert proc.stdout.strip() == "minimal risk: 2 [dp, examined 0]"
    doc = read_json(out / "optimize.json")
    assert doc["resilient"] is True
    assert doc["value"] == 2
    assert doc["certificate"] == "dp"
    m1 = build_m1()
    witness = rk.strategy_from_text(m1, (out / "witness.strategy").read_text())
    bundle = rk.build_bundle(m1, witness, 2)
    effort = rk.Composed(rk.ControlEffort(), rk.Expectation())
    assert rk.evaluate_risk(m1, effort, bundle) == 2.0


def test_optimize_not_resilient(tmp_path):
    proc = run_cli("optimize", "--model", model("m1_effort.model"),
                   "--x0", "0", "--out", str(tmp_path))
    assert proc.returncode == 1
    doc = read_json(tmp_path / "optimize.json")
    assert doc["resilient"] is False
    assert doc["value"] == "inf"
    assert not (tmp_path / "witness.strategy").exists()


def test_indicator(tmp_path):
    good = run_cli("indicator", "--model", model("m1_effort.model"),
                   "--x0", "2", "--out", str(tmp_path))
    assert good.returncode == 0
    assert good.stdout.strip() == "2"
    assert read_json(tmp_path / "indicator.json")["value"] == 2
    bad = run_cli("indicator", "--model", model("m1_effort.model"),
                  "--x0", "0")
    assert bad.returncode == 1
    assert bad.stdout.strip() == "inf"


def test_simulate_outputs(tmp_path):
    out = tmp_path / "sim"
    proc = run_cli("simulate", "--model", model("m1.model"),
                   "--strategy", model("m1_hold.strategy"),
                   "--x0", "2", "--out", str(out))
    assert proc.returncode == 0
    doc = read_json(out / "simulate.json")
    assert doc["scenarios"] == 8
    assert doc["robust_only"] is False
    lines = (out / "trajectories.csv").read_text().splitlines()
    assert lines[0] == "scenario,labels,time,state,control"
    # 8 scenarios x 4 time points
    assert len(lines) == 1 + 32
    # the all-calm scenario holds the level at 2
    assert lines[1] == "0,0 0 0,0,2,0"
    assert lines[4] == "0,0 0 0,3,2,"


def test_simulate_robust_only(tmp_path):
    proc = run_cli("simulate", "--model", model("m1_benign.model"),
                   "--strategy", model("m1_hold.strategy"),
                   "--x0", "2", "--robust-only", "--out", str(tmp_path))
    assert proc.returncode == 0
    doc = read_json(tmp_path / "simulate.json")
    assert doc["scenarios"] == 1
    assert doc["robust_only"] is True


def test_oracle_resilient_set(tmp_path):
    proc = run_cli("oracle", "resilient-set", "--model", model("m1.model"),
                   "--out", str(tmp_path))
    assert proc.returncode == 0
    doc = read_json(tmp_path / "oracle_resilient_set.json")
    assert doc["mode"] == "resilient-set"
    assert doc["method"] == "oracle"
    assert doc["members"] == ["2", "3"]


def test_oracle_value(tmp_path):
    proc = run_cli("oracle", "value", "--model", model("m1.model"),
                   "--out", str(tmp_path))
    assert proc.returncode == 0
    doc = read_json(tmp_path / "oracle_value.json")
    assert doc["values"] == {"0": 0, "1": 0, "2": 1, "3": 1}


def test_oracle_recovery(tmp_path):
    proc = run_cli("oracle", "recovery", "--model", model("m1_benign.model"),
                   "--out", str(tmp_path))
    assert proc.returncode == 0
    doc = read_json(tmp_path / "oracle_recovery.json")
    assert doc["offsets"] == {"0": 2, "1": 1, "2": 0, "3": 0}
    assert doc["witness_ranks"] == {"0": 2112, "1": 1024, "2": 0, "3": 0}


def test_oracle_min_risk(tmp_path):
    proc = run_cli("oracle", "min-risk", "--model", model("m1_effort.model"),
                   "--x0", "2", "--out", str(tmp_path))
    assert proc.returncode == 0
    doc = read_json(tmp_path / "oracle_min_risk.json")
    assert doc["value"] == 2
    assert doc["examined"] == 512
    assert (tmp_path / "oracle_witness.strategy").exists()


def test_oracle_risk(tmp_path):
    proc = run_cli("oracle", "risk", "--model", model("m1.model"),
                   "--strategy", model("m1_hold.strategy"),
                   "--x0", "2", "--out", str(tmp_path))
    assert proc.returncode == 0
    assert proc.stdout.strip() == "risk: 0.875"
    doc = read_json(tmp_path / "oracle_risk.json")
    assert doc["risk"] == "exceedance"
    assert doc["value"] == 0.875


def test_no_out_writes_nothing(tmp_path):
    proc = run_cli("kernel", "--model", model("m1.model"), cwd=str(tmp_path))
    assert proc.returncode == 0
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, fragment", [
    (("kernel", "--model", "missing.model"), "cannot read"),
    (("kernel", "--model", "m1.model", "--x0", "9"), "unknown state label"),
    (("kernel", "--model", "m1.model", "--t", "7"), "--t must be in 0..3"),
    (("check", "--model", "m1.model", "--x0", "2"), "needs --strategy"),
    (("check", "--model", "m1.model",
      "--strategy", "m1_keep.strategy"), "needs --x0"),
    (("optimize", "--model", "m1.model", "--x0", "2", "--cap", "5"),
     "exceed cap"),
    (("oracle", "risk", "--model", "m1.model", "--x0", "CEMETERY",
      "--strategy", "m1_keep.strategy"), "x0 must be an ordinary state"),
    (("kernel", "--model", "empty_key.model"),
     "line 40: unknown [regime] key ''"),
    (("optimize", "--model", "m1.model", "--x0", "2", "--jobs", "4"),
     "unrecognized arguments: --jobs 4"),
])
def test_bad_input_exits_2(argv, fragment, tmp_path):
    # m1.model with a key-less line opening its [regime] section
    empty_key = tmp_path / "empty_key.model"
    empty_key.write_text(
        (MODELS / "m1.model").read_text().replace("[regime]", "[regime]\n= 2")
    )
    fixed = [
        str(empty_key) if a == "empty_key.model"
        else model(a)
        if a != "missing.model" and a.endswith((".model", ".strategy"))
        else a
        for a in argv
    ]
    proc = run_cli(*fixed)
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert fragment in proc.stderr


@pytest.mark.parametrize("argv, fragment", [
    (("oracle", "value", "--model", "m1.model", "--t", "99"),
     "--t must be in 0..3, got 99"),
    (("value", "--model", "m1.model", "--beta", "1.5"),
     "--beta must be in [0, 1], got 1.5"),
    (("value", "--model", "m1.model", "--beta", "nan"),
     "--beta must be in [0, 1], got nan"),
    (("value", "--model", "loose.model"),
     "the regime's beta must be in [0, 1], got 1.5"),
])
def test_exit_2_creates_no_out_dir(argv, fragment, tmp_path):
    # m1_effort.model, whose stochastic_viability regime has beta 1.5
    loose = tmp_path / "loose.model"
    loose.write_text(
        (MODELS / "m1_effort.model").read_text()
        .replace("beta = 1.0", "beta = 1.5")
    )
    fixed = [
        str(loose) if a == "loose.model"
        else model(a) if a.endswith(".model") else a
        for a in argv
    ]
    out = tmp_path / "out"
    proc = run_cli(*fixed, "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr == f"error: {fragment}\n"
    assert not out.exists()


def test_optimize_without_risk_section_exits_2(tmp_path):
    text = (MODELS / "m1.model").read_text()
    head, _, _ = text.partition("[risk]")
    bare = tmp_path / "bare.model"
    bare.write_text(head)
    proc = run_cli("optimize", "--model", str(bare), "--x0", "2")
    assert proc.returncode == 2
    assert "needs a [risk] section" in proc.stderr


def test_malformed_model_reports_line(tmp_path):
    text = (MODELS / "m1.model").read_text().replace("horizon = 3",
                                                     "horizon = x")
    broken = tmp_path / "broken.model"
    broken.write_text(text)
    proc = run_cli("kernel", "--model", str(broken))
    assert proc.returncode == 2
    assert "bad horizon 'x'" in proc.stderr


def test_unknown_command_exits_2():
    proc = run_cli("frobnicate", "--model", model("m1.model"))
    assert proc.returncode == 2


OPTIONS = {  # each subcommand's option strings, in --help order
    "check": ["--model", "--out", "--strategy", "--x0", "--t", "--cap"],
    "kernel": ["--model", "--out", "--x0", "--t"],
    "value": ["--model", "--out", "--x0", "--t", "--beta"],
    "recovery": ["--model", "--out", "--x0", "--t", "--deadline"],
    "resilient-set": ["--model", "--out", "--x0", "--t", "--class", "--cap"],
    "optimize": ["--model", "--out", "--x0", "--t", "--class", "--cap"],
    "indicator": ["--model", "--out", "--x0", "--t", "--class", "--cap"],
    "simulate": ["--model", "--out", "--strategy", "--x0", "--t", "--cap",
                 "--robust-only"],
    "oracle": ["--model", "--out", "--strategy", "--x0", "--t", "--class",
               "--cap", "--robust-only"],
}


def test_each_subcommand_takes_exactly_its_options(capsys):
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(OPTIONS)
    for name, p in sub.choices.items():
        options = [s for a in p._actions for s in a.option_strings
                   if s not in ("-h", "--help")]
        assert options == OPTIONS[name], name
        positionals = [a for a in p._actions if not a.option_strings]
        assert [a.dest for a in positionals] == (
            ["mode"] if name == "oracle" else []
        ), name
    (mode,) = [a for a in sub.choices["oracle"]._actions if a.dest == "mode"]
    assert list(mode.choices) == [
        "resilient-set", "value", "recovery", "min-risk", "risk",
    ]
    # no subcommand takes --alpha: a CVaR level comes from the model file
    with pytest.raises(SystemExit) as exit_:
        parser.parse_args(["optimize", "--model", "m1.model", "--alpha", "0.3"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --alpha 0.3" in capsys.readouterr().err
