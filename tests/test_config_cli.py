import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from fmtt import (ConfigError, ExperimentConfig, InterpolantSchedule, LinearReward,
                  MixturePath, RunConfig, TimeDependentReward, run, standard_normal)
from fmtt.cli import _run_seed, main

SRC = Path(__file__).resolve().parents[1] / "src"

FAST_SAMPLE = """
seed: 5
problem:
  base: standard_normal
  target: standard_normal
schedule:
  kind: linear
  eta_offset: 0.05
run:
  n_particles: 48
  n_steps: 30
  chi: local_tilt
  weight_scheme: ito
  resampling: {kind: never}
reward:
  kind: linear
  params: {coeffs: [0.5]}
  mode: naive
"""

SEARCH = """
seed: 9
problem:
  base: {standard_normal_dim: 2}
  target:
    weights: [0.5, 0.5]
    means: [[-2.0, 0.0], [2.0, 0.0]]
    covariances: [[[0.25, 0.0], [0.0, 0.25]], [[0.25, 0.0], [0.0, 0.25]]]
schedule:
  kind: linear
  eta_offset: 0.05
run:
  n_particles: 16
  n_steps: 30
  clones: 2
  mode: searching
  chi: tilted_score
  weight_scheme: ito
  resampling: {kind: at_steps, steps: [15]}
reward:
  kind: log_responsibility
  params: {component: 1, scale: 0.1}
  mode: denoiser
"""


def test_from_yaml_builds_everything():
    cfg = ExperimentConfig.from_yaml(FAST_SAMPLE)
    assert cfg.run.seed == 5
    assert cfg.run.n_particles == 48
    assert cfg.rt.path is cfg.path
    assert cfg.rt.mode == "naive"
    assert cfg.rt.value(1.0, np.array([[2.0]]))[0] == pytest.approx(1.0)


def test_seed_override():
    cfg = ExperimentConfig.from_yaml(FAST_SAMPLE, seed_override=42)
    assert cfg.run.seed == 42


def test_unknown_keys_rejected_at_every_level():
    for mutate in (
        lambda d: d.update(bogus=1),
        lambda d: d["problem"].update(extra="x"),
        lambda d: d["schedule"].update(gamma=2),
        lambda d: d["run"].update(particles=3),
        lambda d: d["run"]["resampling"].update(tau=0.5),
        lambda d: d["reward"].update(strength=1.0),
        lambda d: d["reward"]["params"].update(gamma=1.0),
    ):
        raw = yaml.safe_load(FAST_SAMPLE)
        mutate(raw)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_yaml(yaml.safe_dump(raw))


def test_unread_output_block_rejected():
    raw = yaml.safe_load(FAST_SAMPLE)
    raw["output"] = {"formats": ["csv"]}
    with pytest.raises(ConfigError, match="output"):
        ExperimentConfig.from_yaml(yaml.safe_dump(raw))


def test_thread_cap_is_set_before_numpy_is_imported():
    # Record OPENBLAS_NUM_THREADS at the moment numpy is first imported.
    code = ("import builtins, os\n"
            "seen, real = [], builtins.__import__\n"
            "def hook(name, *args, **kwargs):\n"
            "    if name == 'numpy' and not seen:\n"
            "        seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
            "    return real(name, *args, **kwargs)\n"
            "builtins.__import__ = hook\n"
            "import fmtt\n"
            "print(seen[0], os.environ['OPENBLAS_NUM_THREADS'])\n")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["FMTT_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(p for p in [str(SRC), env.get("PYTHONPATH")] if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.split() == ["1", "1"]


INVALID_VALUES = (
    lambda d: d.update(seed=-1),
    lambda d: d["schedule"].update(kind="cosine"),
    lambda d: d["reward"].update(kind="neural"),
    lambda d: d["run"].update(mode="browsing"),
    lambda d: d["run"].update(weight_scheme="simplified"),
    # Each of these was once converted or ignored without a word.
    lambda d: d["run"].update(n_particles=2.7),
    lambda d: d["run"].update(paper_literal="false"),
    lambda d: d.update(diagnostics={"enabled": "false"}),
    lambda d: d.update(seed=True),
    lambda d: d["run"].update(resampling={"kind": "every", "r": 5, "threshold": 0.3}),
    # A zero-dimensional problem once ran and printed an empty mean.
    lambda d: (d["problem"].update(base={"standard_normal_dim": 0},
                                   target={"standard_normal_dim": 0}),
               d["reward"].update(kind="zero", params={})),
    # Non-finite mixture parameters once ran into a degenerate ensemble.
    lambda d: d["problem"].update(target={"weights": [1.0], "means": [[float("nan")]],
                                          "covariances": [[[1.0]]]}),
    lambda d: d["problem"].update(target={"weights": [1.0], "means": [[float("inf")]],
                                          "covariances": [[[1.0]]]}),
    lambda d: d["problem"].update(target={"weights": [float("nan"), 0.5],
                                          "means": [[-1.0], [1.0]],
                                          "covariances": [[[1.0]], [[1.0]]]}),
)


def test_invalid_values_rejected():
    for mutate in INVALID_VALUES:
        raw = yaml.safe_load(FAST_SAMPLE)
        mutate(raw)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_yaml(yaml.safe_dump(raw))


# Each of these values once passed validation and crashed the run that reads it.
VALUES_READ_MID_RUN = {
    "ksteps-k0": lambda d: d["reward"].update(mode="flowmap_ksteps", k=0),
    "hutchinson-probes-0": lambda d: d["run"].update(
        weight_scheme="laplacian", hutchinson={"probes": 0}),
    "hutchinson-eps-negative": lambda d: d["run"].update(
        weight_scheme="laplacian", hutchinson={"eps": -1.0}),
    "hutchinson-probe-uniform": lambda d: d["run"].update(
        weight_scheme="laplacian", hutchinson={"probe": "uniform"}),
    "expectation-samples-0": lambda d: d["run"].update(
        weight_scheme="expectation", expectation_samples=0),
    "resample-method-stratified": lambda d: d["run"].update(
        resampling={"kind": "every", "r": 1}, resample_method="stratified"),
    "n-particles-many": lambda d: d["run"].update(n_particles="many"),
    "at-steps-not-a-list": lambda d: d["run"].update(
        resampling={"kind": "at_steps", "steps": 3}),
    "threshold-string": lambda d: d["run"].update(
        resampling={"kind": "ess", "threshold": "0.5"}),
    "diagnostics-n-runs-0": lambda d: d.update(diagnostics={"n_runs": 0}),
    "coeffs-longer-than-target": lambda d: d["reward"].update(params={"coeffs": [1, 2]}),
    "tilted-score-eta-offset-0": lambda d: (
        d["run"].update(chi="tilted_score"), d["schedule"].update(eta_offset=0.0)),
    "ito-tilted-score-epsilon-zero": lambda d: (
        d["run"].update(chi="tilted_score"), d["schedule"].update(epsilon="zero")),
    "seed-2-to-the-64": lambda d: d.update(seed=2**64),
    "epsilon-nan": lambda d: d["schedule"].update(epsilon=float("nan")),
    "epsilon-inf": lambda d: d["schedule"].update(epsilon=float("inf")),
    "schedule-times-nan": lambda d: d["run"].update(
        n_steps=2, schedule_times=[0.0, float("nan"), 1.0]),
    "tilted-score-eta-offset-nan": lambda d: (
        d["run"].update(chi="tilted_score"), d["schedule"].update(eta_offset=float("nan"))),
    "hutchinson-eps-inf": lambda d: (
        d["run"].update(weight_scheme="laplacian", hutchinson={"eps": float("inf")}),
        d["reward"].update(kind="quadratic", params={"gamma": 1.0})),
    "quadratic-gamma-nan": lambda d: d["reward"].update(
        kind="quadratic", params={"gamma": float("nan")}),
    # exp(-gamma x^2 / 2) with 1 + gamma var <= 0 for some component: no normalizer.
    "improper-tilt-gaussian": lambda d: d["reward"].update(
        kind="quadratic", params={"gamma": -1.5}),
    "improper-tilt-two-components": lambda d: (
        d["problem"].update(target={"weights": [0.5, 0.5], "means": [[-1.0], [1.0]],
                                    "covariances": [[[1.0]], [[0.5]]]}),
        d["reward"].update(kind="quadratic", params={"gamma": -1.5})),
}


@pytest.mark.parametrize("name", sorted(VALUES_READ_MID_RUN))
def test_values_read_mid_run_rejected_up_front(name):
    raw = yaml.safe_load(FAST_SAMPLE)
    VALUES_READ_MID_RUN[name](raw)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_yaml(yaml.safe_dump(raw))


def test_cli_value_read_mid_run_exits_2_before_running(tmp_path, capsys):
    mutations = {**VALUES_READ_MID_RUN, **dict(enumerate(INVALID_VALUES))}
    for name, mutate in mutations.items():
        raw = yaml.safe_load(FAST_SAMPLE)
        mutate(raw)
        cfg = _write(tmp_path, yaml.safe_dump(raw))
        out = tmp_path / "o"
        assert main(["sample", "--config", cfg, "--out", str(out)]) == 2, name
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError", name
        assert name != "hutchinson-probes-0" or "m_probes" in err["message"]
        assert not str(name).startswith("improper-tilt") or err["message"].startswith(
            "reward.params.gamma:")
        assert not out.exists(), name


def _run_kwargs(raw):
    """The run block and seed of a parsed config as RunConfig arguments."""
    return {**raw["run"], "seed": raw["seed"]}


def _run_block_entries():
    """The entries of INVALID_VALUES and VALUES_READ_MID_RUN that change only
    the run block or the seed, as RunConfig arguments."""
    plain = yaml.safe_load(FAST_SAMPLE)
    entries = {}
    invalid = {f"invalid-values-{i}": mutate for i, mutate in enumerate(INVALID_VALUES)}
    for name, mutate in {**VALUES_READ_MID_RUN, **invalid}.items():
        raw = yaml.safe_load(FAST_SAMPLE)
        mutate(raw)
        if {**raw, "run": None, "seed": None} == {**plain, "run": None, "seed": None}:
            entries[f"yaml-{name}"] = _run_kwargs(raw)
    return entries


# The run-block entries, then values the Python API once ran or stopped on
# with a bare TypeError.
INVALID_RUN_CONFIGS = {
    **_run_block_entries(),
    "paper-literal-no": {"paper_literal": "no"},
    "ess-with-r": {"resampling": {"kind": "ess", "threshold": 0.5, "r": 3}},
    "seed-float": {"seed": 1.5},
    "seed-negative": {"seed": -1},
    "n-particles-float": {"n_particles": 8.0},
    "n-steps-float": {"n_steps": 4.0},
    "clones-float": {"clones": 1.0},
    "expectation-samples-float": {"weight_scheme": "expectation",
                                  "expectation_samples": 4.0},
    "hutchinson-probes-float": {"weight_scheme": "laplacian", "hutchinson": {"probes": 4.0}},
    "hutchinson-eps-inf": {"weight_scheme": "laplacian", "hutchinson": {"eps": float("inf")}},
}


def test_run_block_entries_fail_on_their_own_value():
    # 10 entries of VALUES_READ_MID_RUN and 7 of INVALID_VALUES change only
    # the run block or seed, and FAST_SAMPLE's own run block builds.
    assert len(_run_block_entries()) == 17
    RunConfig(**_run_kwargs(yaml.safe_load(FAST_SAMPLE)))


@pytest.mark.parametrize("name", sorted(INVALID_RUN_CONFIGS))
def test_invalid_run_config_refused_when_built(name):
    with pytest.raises(ConfigError):
        RunConfig(**INVALID_RUN_CONFIGS[name])


def _refusals(settings):
    """The messages with which ExperimentConfig.from_yaml and RunConfig(...)
    refuse the run block and seed that settings give."""
    raw = yaml.safe_load(FAST_SAMPLE)
    raw["run"] = {key: v for key, v in settings.items() if key != "seed"}
    raw["seed"] = settings.get("seed", raw["seed"])
    with pytest.raises(ConfigError) as from_yaml:
        ExperimentConfig.from_yaml(yaml.safe_dump(raw))
    with pytest.raises(ConfigError) as from_python:
        RunConfig(**settings)
    return str(from_yaml.value), str(from_python.value)


@pytest.mark.parametrize("name", sorted(INVALID_RUN_CONFIGS))
def test_refused_run_value_named_by_its_yaml_path_alike(name):
    from_yaml, from_python = _refusals(INVALID_RUN_CONFIGS[name])
    assert from_yaml == from_python
    assert re.search(r"(^|\s)(run\.\w+|seed)\b", from_python), from_python


@pytest.mark.parametrize("where,name", [("run.hutchinson.eps", "hutchinson-eps-inf"),
                                        ("run.schedule_times[1]", "yaml-schedule-times-nan")])
def test_nested_run_value_named_by_its_yaml_path(where, name):
    for message in _refusals(INVALID_RUN_CONFIGS[name]):
        assert message.startswith(f"{where} must be finite"), message


KNOTS = np.linspace(0.0, 1.0, 9) ** 2

# Each entry: (plain Python arguments, another spelling of the same values).
ACCEPTED_SPELLINGS = {
    "numpy-counts-and-seed": ({"n_particles": 16, "n_steps": 8, "clones": 2, "seed": 3},
                              {"n_particles": np.int64(16), "n_steps": np.int64(8),
                               "clones": np.int64(2), "seed": np.int64(3)}),
    "numpy-threshold": ({"resampling": {"kind": "ess", "threshold": 0.9}},
                        {"resampling": {"kind": "ess", "threshold": np.float64(0.9)}}),
    "tuple-steps": ({"resampling": {"kind": "at_steps", "steps": [2, 5]}},
                    {"resampling": {"kind": "at_steps", "steps": (2, 5)}}),
    "ndarray-knots": ({"schedule_times": KNOTS.tolist()}, {"schedule_times": KNOTS}),
    "int-eps": ({"hutchinson": {"probes": 4, "eps": 1.0}},
                {"hutchinson": {"probes": 4, "eps": 1}}),
}


def test_run_config_cannot_be_changed_after_it_was_checked():
    cfg = RunConfig(n_steps=4, weight_scheme="ito", schedule_times=KNOTS[::2],
                    resampling={"kind": "at_steps", "steps": [1, 3]})
    with pytest.raises(TypeError):
        cfg.resampling["kind"] = "every"
    with pytest.raises(TypeError):
        cfg.resampling["steps"][0] = 0
    with pytest.raises(TypeError):
        cfg.schedule_times[1] = 2.0
    again = replace(cfg, seed=3)
    assert (again.resampling, again.schedule_times) == (cfg.resampling, cfg.schedule_times)
    every = replace(cfg, resampling={"kind": "every", "r": 2})
    with pytest.raises(TypeError):
        every.resampling["r"] = 0


@pytest.mark.parametrize("name", sorted(ACCEPTED_SPELLINGS))
def test_accepted_spellings_run_bitwise_equal(name):
    path = MixturePath(standard_normal(1), standard_normal(1),
                       InterpolantSchedule.linear(eta_offset=0.05))
    rt = TimeDependentReward(LinearReward([0.5]), "naive", path)
    common = {"n_steps": 8, "chi": "local_tilt", "weight_scheme": "laplacian",
              "hutchinson": {"probes": 4}}
    plain, other = (RunConfig(**{**common, **kwargs}) for kwargs in ACCEPTED_SPELLINGS[name])
    assert other == plain
    a, b = run(plain, path, rt), run(other, path, rt)
    for field in ("positions", "logweights"):
        assert np.array_equal(getattr(a.ensemble, field), getattr(b.ensemble, field))
    assert np.array_equal(a.log_z_history, b.log_z_history)
    assert a.resample_steps == b.resample_steps


def test_resolved_yaml_roundtrips():
    cfg = ExperimentConfig.from_yaml(FAST_SAMPLE)
    again = ExperimentConfig.from_yaml(cfg.resolved_yaml())
    assert again.run == cfg.run
    assert again.reward == cfg.reward
    scheduled = yaml.safe_load(FAST_SAMPLE)
    scheduled["schedule"]["epsilon"] = 0.5
    scheduled["run"].update(schedule_times=(np.linspace(0.0, 1.0, 31) ** 2).tolist(),
                            weight_scheme="laplacian",
                            hutchinson={"probes": 4, "eps": 0.01})
    for text in (FAST_SAMPLE, SEARCH, yaml.safe_dump(scheduled)):
        snapshot = ExperimentConfig.from_yaml(text).resolved_yaml()
        assert ExperimentConfig.from_yaml(snapshot).resolved_yaml() == snapshot
    run = yaml.safe_load(snapshot)["run"]
    assert run["schedule_times"] == scheduled["run"]["schedule_times"]
    assert run["hutchinson"] == {"probes": 4, "eps": 0.01, "probe": "gaussian"}


def _write(tmp_path, text, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cli_sample_outputs(tmp_path):
    cfg = _write(tmp_path, FAST_SAMPLE)
    out = tmp_path / "out"
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "trace.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "t", "ess", "resampled", "logZ", "mean_reward"]
    assert len(rows) == 31
    with open(out / "diagnostics.csv") as fh:
        drows = list(csv.reader(fh))
    assert drows[0] == ["step", "t", "D_hat", "Lambda_cum"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["command"] == "sample"
    assert summary["oracle"]["oracle_mean"] == pytest.approx(0.5)
    assert abs(summary["tilted_mean"][0] - 0.5) < 0.5
    assert (out / "config_resolved.yaml").exists()


TWO_MODE_SAMPLE = """
seed: 3
problem:
  base: {standard_normal_dim: 2}
  target:
    weights: [0.5, 0.5]
    means: [[-2.0, 0.0], [2.0, 0.0]]
    covariances: [[[0.25, 0.0], [0.0, 0.25]], [[0.25, 0.0], [0.0, 0.25]]]
schedule:
  eta_offset: 0.05
run:
  n_particles: 16
  n_steps: 5
  weight_scheme: ito
  resampling: {kind: never}
reward:
  mode: naive
diagnostics:
  enabled: false
"""


def test_cli_sample_oracle_closed_form_in_2d(tmp_path):
    # The linear tilt a = (0.5, 0.25) moves each mode by Sigma a = (0.125,
    # 0.0625) and weighs it by exp(+-1): E[x_0] = 2 tanh(1) + 0.125 and
    # log Z = log cosh(1) + a^T Sigma a / 2.
    raw = yaml.safe_load(TWO_MODE_SAMPLE)
    raw["reward"].update(kind="linear", params={"coeffs": [0.5, 0.25]})
    out = tmp_path / "out"
    assert main(["sample", "--config", _write(tmp_path, yaml.safe_dump(raw)),
                 "--out", str(out)]) == 0
    oracle = json.loads((out / "summary.json").read_text())["oracle"]
    assert oracle["kind"] == "closed_form" and oracle["oracle_stderr"] == 0.0
    assert oracle["oracle_mean"] == pytest.approx(2 * np.tanh(1.0) + 0.125, rel=1e-12)
    assert oracle["log_z"] == pytest.approx(np.log(np.cosh(1.0)) + 0.0390625, rel=1e-12)


def test_cli_sample_oracle_snis_without_closed_form(tmp_path):
    raw = yaml.safe_load(TWO_MODE_SAMPLE)
    raw["reward"].update(kind="log_responsibility", params={"component": 1, "scale": 0.5})
    out = tmp_path / "out"
    assert main(["sample", "--config", _write(tmp_path, yaml.safe_dump(raw)),
                 "--out", str(out)]) == 0
    oracle = json.loads((out / "summary.json").read_text())["oracle"]
    assert oracle["kind"] == "snis" and oracle["oracle_stderr"] > 0.0
    assert "log_z" not in oracle


def test_cli_paper_literal_flag_is_the_run_setting(tmp_path):
    cfg = _write(tmp_path, FAST_SAMPLE)
    raw = yaml.safe_load(FAST_SAMPLE)
    raw["run"]["paper_literal"] = True
    literal = _write(tmp_path, yaml.safe_dump(raw), "literal.yaml")
    outs = [tmp_path / name for name in ("flag", "setting", "plain")]
    assert main(["sample", "--config", cfg, "--paper-literal", "--out", str(outs[0])]) == 0
    assert main(["sample", "--config", literal, "--out", str(outs[1])]) == 0
    assert main(["sample", "--config", cfg, "--out", str(outs[2])]) == 0
    flag, setting, plain = ({name: (out / name).read_bytes()
                             for name in ("summary.json", "config_resolved.yaml")}
                            for out in outs)
    assert flag == setting
    assert flag["summary.json"] != plain["summary.json"]


def test_cli_sample_bit_identical_reruns(tmp_path):
    cfg = _write(tmp_path, FAST_SAMPLE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["sample", "--config", cfg, "--out", str(out1)])
    main(["sample", "--config", cfg, "--out", str(out2)])
    assert (out1 / "trace.csv").read_text() == (out2 / "trace.csv").read_text()
    assert (out1 / "summary.json").read_text() == (out2 / "summary.json").read_text()


def test_cli_seed_flag_changes_output(tmp_path):
    cfg = _write(tmp_path, FAST_SAMPLE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["sample", "--config", cfg, "--out", str(out1)])
    main(["sample", "--config", cfg, "--seed", "123", "--out", str(out2)])
    assert (out1 / "trace.csv").read_text() != (out2 / "trace.csv").read_text()


def test_cli_search_outputs(tmp_path):
    cfg = _write(tmp_path, SEARCH)
    out = tmp_path / "out"
    assert main(["search", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["command"] == "search"
    assert summary["selection_steps"] == [15]
    assert "baseline_mean_terminal_reward" in summary
    assert (out / "terminal_rewards.csv").exists()
    with open(out / "trace.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 30 and all(row["logZ"] == "nan" for row in rows)


def test_cli_search_rejects_sampling_config(tmp_path):
    cfg = _write(tmp_path, FAST_SAMPLE)
    assert main(["search", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def test_cli_diagnose_and_refine(tmp_path):
    cfg = _write(tmp_path, FAST_SAMPLE)
    out = tmp_path / "diag"
    assert main(["diagnose", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["D_total"] > 0
    sched = yaml.safe_load((out / "refined_schedule.yaml").read_text())
    times = np.asarray(sched["schedule_times"])
    assert times.shape[0] == 31
    assert times[0] == 0.0 and times[-1] == 1.0
    assert np.all(np.diff(times) > 0)

    out2 = tmp_path / "refine"
    assert main(["refine", "--config", cfg, "--out", str(out2)]) == 0
    summary2 = json.loads((out2 / "summary.json").read_text())
    assert len(summary2["rounds"]) >= 1
    assert (out2 / "refined_schedule.yaml").exists()


def _bad_config_args(case, tmp_path):
    """(--config, --out) of a refused config command."""
    out = tmp_path / "o"
    if case == "unknown-root-key":
        return _write(tmp_path, FAST_SAMPLE + "\nunknown_root_key: 1\n"), out
    if case == "missing-file":
        return str(tmp_path / "missing.yaml"), out
    if case == "directory":
        (tmp_path / "cfg").mkdir()
        return str(tmp_path / "cfg"), out
    if case == "malformed-yaml":
        return _write(tmp_path, "run: [1, 2\n"), out
    out.write_text("a file")
    return _write(tmp_path, FAST_SAMPLE), out


@pytest.mark.parametrize("case", ["unknown-root-key", "missing-file", "directory",
                                  "malformed-yaml", "out-is-a-file"])
def test_cli_bad_config_json_error(tmp_path, capsys, case):
    cfg, out = _bad_config_args(case, tmp_path)
    code = main(["sample", "--config", cfg, "--out", str(out)])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ConfigError"
    assert not out.is_dir()


def test_dimension_mismatch_names_both_blocks():
    with pytest.raises(ConfigError) as info:
        ExperimentConfig.from_yaml("problem: {target: {standard_normal_dim: 2}}")
    message = str(info.value)
    assert "problem.base has dimension 1" in message
    assert "problem.target dimension 2" in message


def test_cli_verify_only_suite(capsys):
    assert main(["verify", "--only", "oracles"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_run_seeds_are_distinct_across_seeds_rounds_and_runs():
    grid = [_run_seed(s, r, j) for s in range(4) for r in range(3) for j in range(1002)]
    assert len(set(grid)) == len(grid)
    assert not {_run_seed(1, r, j) for r in range(3) for j in range(50)} & {
        _run_seed(2, r, j) for r in range(3) for j in range(50)}
