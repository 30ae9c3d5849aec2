"""Command-line entry point.

Subcommands:

* run             -- execute the configured propagation, write CSV outputs.
* extract-vclass  -- reconstruct the center potential numerically and
                     compare it with the closed form.
* verify          -- run the invariant suite, one machine-readable line per
                     check.

Exit codes: 0 success; 1 verification failures (count reported); 2 config
errors; 3 coverage/escape; 4 unitarity alarm; 5 extraction failure; 6 any
other gcsdyn error.
"""

import argparse
import os
import shutil
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .classical import linear_coefficient, v_class
from .config import RunConfig, echo_config, load_config
from .displacement import ClassicalPoint, gcs_from_model
from .errors import (
    ConfigError,
    CoverageError,
    EscapeError,
    ExtractionError,
    GcsdynError,
    OptionalDependencyError,
    UnitarityError,
)
from .models import suggest_grid
from .output import (
    render_plots,
    write_diagnostics_csv,
    write_fields_csv,
    write_plot_data,
    write_trajectory_csv,
    write_vclass_csv,
)
from .propagation import evolve_feedback, evolve_static
from .verify import run_verification

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_COVERAGE = 3
EXIT_UNITARITY = 4
EXIT_EXTRACTION = 5
EXIT_ERROR = 6


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcsdyn",
        description=(
            "Displaced-ground-state wave packets carried without spreading "
            "by a self-adjusting potential; static runs give the spreading "
            "baseline."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("run", "propagate per the configuration and write CSV outputs"),
        ("extract-vclass", "numerically reconstruct the center potential"),
        ("verify", "run the invariant suite for this configuration"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="path to a JSON run config")
    return parser


# what gcsdyn run and gcsdyn extract-vclass write into their output
# directory; each replaces its own and leaves every other entry there alone
RUN_OUTPUTS = ("effective_config.json", "diagnostics.csv", "trajectory.csv",
               "fields", "plots")
VCLASS_OUTPUTS = ("effective_config.json", "vclass.csv")


@contextmanager
def _staged(outdir: Path, outputs):
    """A new sibling of outdir to write a command's outputs into. When the
    block succeeds, they replace those of an earlier call in outdir; when it
    fails, outdir is not touched, and when a move fails, the moves made are
    undone. A directory with no name (a filesystem root) has no sibling
    and is refused."""
    outdir = Path(os.path.abspath(outdir))
    if not outdir.name:
        raise ConfigError(f"output directory {outdir} has no name; name one below it")
    stage = outdir.with_name(f".{outdir.name}.{os.getpid()}.partial")
    old = stage.with_suffix(".old")
    try:
        shutil.rmtree(stage, ignore_errors=True)
        stage.mkdir(parents=True)
        yield stage
        outdir.mkdir(exist_ok=True)
        old.mkdir(exist_ok=True)
        moves = [(a / name, b / name) for a, b in ((outdir, old), (stage, outdir))
                 for name in outputs if os.path.lexists(a / name)]
        for i, (src, dst) in enumerate(moves):
            try:
                shutil.move(src, dst)
            except OSError:  # put back what moved, the earlier run's last
                for src, dst in reversed(moves[:i]):
                    shutil.move(dst, src)
                shutil.rmtree(old, ignore_errors=True)
                raise
    except OSError as exc:
        raise ConfigError(f"cannot write to output directory {outdir}: {exc}") from exc
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    shutil.rmtree(old, ignore_errors=True)


def cmd_run(cfg: RunConfig) -> int:
    with _staged(cfg.output_dir, RUN_OUTPUTS) as outdir:
        echo_config(cfg, outdir)
        if cfg.propagation.mode == "feedback":
            result = evolve_feedback(cfg.model, cfg.initial_point, cfg.propagation,
                                     cfg.T, cfg.grid, cfg.tolerances)
        else:
            state0 = gcs_from_model(cfg.model, cfg.grid, cfg.initial_point,
                                    cfg.tolerances)
            result = evolve_static(state0, cfg.model, cfg.propagation, cfg.T,
                                   cfg.tolerances)

        write_diagnostics_csv(outdir / "diagnostics.csv", result.records)
        write_trajectory_csv(outdir / "trajectory.csv", result.trajectory, cfg.model)
        if cfg.emit_fields:
            write_fields_csv(outdir / "fields", result)
        if cfg.emit_plots:
            write_plot_data(outdir, result)
            try:
                render_plots(outdir, result)
            except OptionalDependencyError as exc:
                print(f"SVG figures skipped: {exc}", file=sys.stderr)

    worst = max(1.0 - r.overlap for r in result.records)
    print(
        f"run complete: {len(result.records)} snapshots, "
        f"worst overlap deviation {worst:.3e}, outputs in {cfg.output_dir}"
    )
    return EXIT_OK


def cmd_extract_vclass(cfg: RunConfig) -> int:
    with _staged(cfg.output_dir, VCLASS_OUTPUTS) as outdir:
        echo_config(cfg, outdir)
        model = cfg.model
        reach = 3.0 * model.dq
        # widen the grid so every sampled displacement keeps full coverage
        n = max(cfg.grid.n, 2048)
        grid = suggest_grid(model, q_reach_min=-(reach + model.dq),
                            q_reach_max=reach + model.dq, n=n)

        nodes, weights = np.polynomial.legendre.leggauss(20)
        q_values = np.linspace(-reach, reach, 61)
        rows = []
        worst = 0.0
        for q in q_values:
            ana = float(v_class(model, q))
            if q == 0.0:
                num = 0.0
            else:
                xg = 0.5 * q * (nodes + 1.0)
                wg = 0.5 * q * weights
                forces = [
                    linear_coefficient(
                        model, ClassicalPoint(Q=float(xq), P=0.0, t=0.0),
                        dPdt=0.0, grid=grid, tol=cfg.tolerances,
                    )
                    for xq in xg
                ]
                num = -float(np.dot(wg, forces))
            rel = abs(num - ana) / max(abs(ana), 1e-9 * model.energy_scale)
            worst = max(worst, rel)
            rows.append((q, ana, num, rel))

        write_vclass_csv(outdir / "vclass.csv", rows)
    print(f"vclass reconstruction over |Q| <= {reach:.6g}: "
          f"max relative deviation {worst:.3e}")
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    results = run_verification(cfg)
    for res in results:
        print(res.line())
    failures = sum(0 if r.passed else 1 for r in results)
    if failures:
        print(f"verification FAILED: {failures} of {len(results)} checks")
        return EXIT_VERIFY_FAILED
    print(f"verification passed: {len(results)} checks")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "extract-vclass":
            return cmd_extract_vclass(cfg)
        return cmd_verify(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CoverageError, EscapeError) as exc:
        print(f"coverage/escape error: {exc}", file=sys.stderr)
        return EXIT_COVERAGE
    except UnitarityError as exc:
        print(f"unitarity alarm: {exc}", file=sys.stderr)
        return EXIT_UNITARITY
    except ExtractionError as exc:
        print(f"extraction error: {exc}", file=sys.stderr)
        return EXIT_EXTRACTION
    except GcsdynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
