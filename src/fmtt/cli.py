"""Command-line entry point: configuration-driven runs and verification.

Subcommands: sample (SMC sampling run), search (greedy top-n search with a
no-search baseline), diagnose (discrepancy and barrier estimation), refine
(iterative schedule refinement), verify (invariant suites).  Outputs go to
one directory per run with a resolved-config snapshot for provenance.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import diagnostics as dg
from .config import ExperimentConfig
from .errors import ConfigError, DiagnosticsUndefinedError, FmttError
from .oracles import snis_tilted_expectation, tilted_mixture
from .smc import RunResult, _normalized_weights, run
from .verify import SUITES, run_suites


def _write_trace_csv(path: Path, result: RunResult) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "t", "ess", "resampled", "logZ", "mean_reward"])
        resampled = set(result.resample_steps)
        for k in range(result.ess_history.shape[0]):
            writer.writerow([k + 1, f"{result.times[k + 1]:.10g}",
                             f"{result.ess_history[k]:.10g}",
                             int((k + 1) in resampled),
                             f"{result.log_z_history[k]:.10g}",
                             f"{result.mean_reward_history[k]:.10g}"])


def _write_diagnostics_csv(path: Path, trace: dg.DiscrepancyTrace,
                           profile: dg.BarrierProfile) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "t", "D_hat", "Lambda_cum"])
        for k in range(trace.n_steps):
            writer.writerow([k + 1, f"{trace.times[k + 1]:.10g}",
                             f"{trace.d_hat[k]:.10g}",
                             f"{profile.lambda_cum[k + 1]:.10g}"])


def _write_schedule(path: Path, times) -> None:
    path.write_text("schedule_times:\n" + "".join(f"- {t:.12g}\n" for t in times))


def _weighted_mean_with_stderr(result: RunResult):
    """Self-normalized mean of each coordinate with a delta-method stderr."""
    w = _normalized_weights(result.ensemble.logweights)
    pos = result.ensemble.positions
    mean = w @ pos
    var = np.einsum("n,ni->i", w**2, (pos - mean) ** 2)
    return mean, np.sqrt(var)


def _diagnostics_summary(trace: dg.DiscrepancyTrace, profile: dg.BarrierProfile) -> dict:
    out = {"D_total": dg.total_discrepancy(trace), "Lambda": profile.total}
    try:
        out["quality_ratio"] = dg.quality_ratio(trace)
    except DiagnosticsUndefinedError:
        out["quality_ratio"] = None
    return out


def _oracle_comparison(cfg: ExperimentConfig, rng: np.random.Generator) -> dict | None:
    """Ground-truth tilted x_0 mean: the closed form, with its log Z, where
    `tilted_mixture` applies; SNIS at d <= 2 where it does not."""
    target, reward = cfg.path.target, cfg.rt.base
    try:
        log_z, tilted = tilted_mixture(target, reward)
    except ValueError:
        if target.dim > 2:
            return None
        est = snis_tilted_expectation(target, reward, lambda x: x[:, 0], 10**6, rng)
        return {"kind": "snis", "oracle_mean": est.estimate, "oracle_stderr": est.stderr}
    return {"kind": "closed_form", "oracle_mean": float(tilted.weights @ tilted.means[:, 0]),
            "oracle_stderr": 0.0, "log_z": log_z}


def cmd_sample(cfg: ExperimentConfig, out: Path) -> dict:
    result = run(cfg.run, cfg.path, cfg.rt)
    _write_trace_csv(out / "trace.csv", result)
    mean, stderr = _weighted_mean_with_stderr(result)
    summary = {"log_z": result.log_z(), "terminal_ess": float(result.ess_history[-1]),
               "resample_steps": result.resample_steps,
               "tilted_mean": [float(m) for m in mean],
               "tilted_mean_stderr": [float(s) for s in stderr]}
    oracle = _oracle_comparison(cfg, np.random.default_rng(cfg.run.seed + 10**6))
    if oracle is not None:
        summary["oracle"] = oracle
    if cfg.diagnostics["enabled"]:
        trace = dg.trace_from_run(result, cfg.run.paper_literal)
        profile = dg.thermodynamic_length(trace)
        _write_diagnostics_csv(out / "diagnostics.csv", trace, profile)
        summary["diagnostics"] = _diagnostics_summary(trace, profile)
    return summary


def cmd_search(cfg: ExperimentConfig, out: Path) -> dict:
    result = run(cfg.run, cfg.path, cfg.rt)
    _write_trace_csv(out / "trace.csv", result)
    terminal_rewards = cfg.rt.value(1.0, result.ensemble.positions)
    baseline_cfg = replace(cfg.run, mode="sampling", clones=1,
                           resampling={"kind": "never"})
    baseline = run(baseline_cfg, cfg.path, cfg.rt)
    base_rewards = cfg.rt.value(1.0, baseline.ensemble.positions)
    np.savetxt(out / "terminal_rewards.csv", terminal_rewards,
               header="terminal_reward", comments="")
    return {
        "mean_terminal_reward": float(np.mean(terminal_rewards)),
        "terminal_reward_stderr": float(np.std(terminal_rewards)
                                        / np.sqrt(terminal_rewards.size)),
        "baseline_mean_terminal_reward": float(np.mean(base_rewards)),
        "baseline_reward_stderr": float(np.std(base_rewards)
                                        / np.sqrt(base_rewards.size)),
        "selection_steps": result.resample_steps,
    }


def _run_seed(seed: int, rnd: int, j: int) -> int:
    """Seed of run j of refinement round rnd, hashed from the triple so that
    no two triples share a stream; offsets from the seed would (seed 1's run 1
    would be seed 2's run 0)."""
    return int(np.random.SeedSequence([seed, rnd, j]).generate_state(1, np.uint64)[0])


def _round(cfg: ExperimentConfig, times: np.ndarray, rnd: int):
    """Diagnose round rnd on the knots times: the discrepancy trace of
    n_runs runs, its barrier profile, the schedule refined from it and the
    round's summary fields."""
    results = [run(replace(cfg.run, schedule_times=times,
                           seed=_run_seed(cfg.run.seed, rnd, j)), cfg.path, cfg.rt)
               for j in range(cfg.diagnostics["n_runs"])]
    trace = dg.trace_from_runs(results, cfg.run.paper_literal)
    profile = dg.thermodynamic_length(trace)
    refined = dg.refine_schedule(profile, cfg.run.n_steps)
    return trace, profile, refined, {"flat_profile": refined.flat,
                                     **_diagnostics_summary(trace, profile)}


def cmd_diagnose(cfg: ExperimentConfig, out: Path) -> dict:
    trace, profile, refined, fields = _round(cfg, cfg.run.times(), 0)
    _write_diagnostics_csv(out / "diagnostics.csv", trace, profile)
    _write_schedule(out / "refined_schedule.yaml", refined.times)
    return {"n_runs": cfg.diagnostics["n_runs"], **fields}


def cmd_refine(cfg: ExperimentConfig, out: Path) -> dict:
    times, rounds = cfg.run.times(), []
    for rnd in range(cfg.diagnostics["refinement_rounds"]):
        _, _, refined, fields = _round(cfg, times, rnd)
        rounds.append({"round": rnd, **fields})
        if refined.flat:
            break
        times = refined.times
    _write_schedule(out / "refined_schedule.yaml", times)
    return {"rounds": rounds}


# Each config command's body, which writes the command's files and returns
# its summary fields, and the run mode the command requires.
COMMANDS = {"sample": (cmd_sample, "sampling"), "search": (cmd_search, "searching"),
            "diagnose": (cmd_diagnose, "sampling"), "refine": (cmd_refine, "sampling")}


def _drive(args) -> int:
    """Run a config command.  The config is checked before the output
    directory is made, so a refused command writes nothing."""
    body, mode = COMMANDS[args.command]
    cfg = ExperimentConfig.from_file(args.config, args.seed)
    if args.paper_literal:
        cfg = replace(cfg, run=replace(cfg.run, paper_literal=True))
    if cfg.run.mode != mode:
        raise ConfigError(f"{args.command} command requires mode: {mode}")
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make the output directory {out}: "
                          f"{exc.strerror or exc}") from exc
    (out / "config_resolved.yaml").write_text(cfg.resolved_yaml())
    summary = {"command": args.command, "seed": cfg.run.seed, **body(cfg, out)}
    (out / "summary.json").write_text(json.dumps(summary, indent=2))
    return 0


def cmd_verify(args) -> int:
    report = run_suites(args.only)
    width = max(len(f"{m}.{n}") for m, n, _, _ in report)
    failures = 0
    for module, name, ok, detail in report:
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{status}  {f'{module}.{name}':<{width}}  {detail}")
    print(f"{len(report) - failures}/{len(report)} checks passed")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fmtt",
                                     description="Reward-tilted flow sampling toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.set_defaults(fn=_drive)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", required=True)
        p.add_argument("--paper-literal", action="store_true")
    p = sub.add_parser("verify")
    p.set_defaults(fn=cmd_verify)
    p.add_argument("--only", choices=sorted(SUITES), default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FmttError as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
