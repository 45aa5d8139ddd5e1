"""Command-line front end.

Subcommands::

    cjl spectrum --m M --n N        link spectrum, indicial roots -> spectrum.json
    cjl profile  --m M --n N        profile curve + geometry      -> profile.csv
    cjl jacobi   --m M --n N        full pipeline with f = tr(A^3)
                                    -> profile.csv, jacobi.csv, decay_report.json
    cjl plateau  --N N --R R        radial exterior graph         -> plateau.csv
    cjl report                      sweep of specs, fitted vs predicted decay
                                    -> report.json (or report.csv)

Each option is declared once, in :data:`OPTIONS`, and a subcommand takes
only the options it reads (``cjl <cmd> --help`` lists them), from flags
and from the ``key = value`` file passed via ``--config`` alike; flags
override file values.  :func:`check_inputs` casts and checks every value
before a command runs and turns the library's ValueError or
OverflowError into exit 2.

A run directory receives the data files plus ``manifest.json`` (config
echo, tool version, wall time, sha256 checksums, summary metrics),
written last.  Data files are deterministic: two runs with identical
configuration are byte-identical.  The default output directory is
``$CJL_OUT`` or ``./cjl_out``.  Exit codes: 0 success, 2 usage/config
error, 3 I/O error, 4 numerical target miss.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from cjlab import __version__
from cjlab.decay import DEFAULT_SWEEP, SWEEP_GRID_STEP, parse_sweep, sweep_config, sweep_row
from cjlab.io import file_checksums, write_csv, write_json
from cjlab.jacobi import (
    DiagnosticError,
    decay_diagnostics,
    near_origin_behavior,
    solve_jacobi,
)
from cjlab.profile import (
    IntegrationFailure,
    ShootingConfig,
    arc_length_defect,
    cone_crossings,
    geometry_trace,
    integrate_profile,
)
from cjlab.plateau import minimal_graph_residual, plateau_profile, plateau_zeta0
from cjlab.spectra import (
    ConeSpec,
    SpectralData,
    indicial_data,
    link_eigenvalues,
    predicted_nu_bar,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

RESIDUAL_TARGET_FACTOR = 1e-6  # jacobi: residual <= factor * (1 + max|f|)
FLUX_TARGET = 1e-10


class NumericalTargetMiss(RuntimeError):
    pass


class ConfigError(ValueError):
    pass


class Option(NamedTuple):
    """``defaults`` maps each subcommand that reads the option to its default
    there; None marks it required, a callable gets the values resolved so far."""

    name: str  # config key; the flag is --name with "_" spelled "-"
    type: Callable[[str], object]  # casts the value's text
    help: str
    defaults: dict

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


@dataclass(frozen=True)
class RunConfig:
    """A checked run: the options its command reads, defaults filled in,
    and the library objects built (or, where cheap, computed) from them."""

    command: str
    values: dict
    spec: ConeSpec | None = None  # spectrum
    spectral: SpectralData | None = None  # spectrum
    shooting: ShootingConfig | None = None  # profile, jacobi
    sweep: tuple[ShootingConfig, ...] = ()  # report
    plateau: tuple | None = None  # (graph, zeta0, fit, flux residual sup)


def _parse_config_file(path: Path) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = value
    return values


def check_inputs(command: str, raw: dict[str, str]) -> RunConfig:
    """Cast and check every input of ``command``, given as option name -> text
    from flags and config file, and build the library objects it runs on
    (their constructors check them); ConfigError on any bad input.

    The spectrum and the plateau graph with its zeta_0 fit take milliseconds,
    so they are computed here and their own errors are the check."""
    options = {o.name: o for o in OPTIONS if command in o.defaults}
    unknown = sorted(raw.keys() - options.keys())
    if unknown:
        raise ConfigError(f"{command} does not take {', '.join(unknown)}")
    v: dict = {}
    for name, opt in options.items():
        default = opt.defaults[command]
        if name in raw:
            try:
                v[name] = opt.type(raw[name])
            except (TypeError, ValueError) as exc:  # argparse turns "--x=--" into []
                raise ConfigError(f"{opt.flag}: {exc}") from exc
        elif default is None:
            raise ConfigError(f"{command} requires {opt.flag}")
        else:
            v[name] = default(v) if callable(default) else default
    try:
        if command == "plateau":
            graph = plateau_profile(v["N"], v["R"], v["r_max"])
            return RunConfig(command, v, plateau=(graph, *plateau_zeta0(graph),
                                                  minimal_graph_residual(graph)))
        if command == "report":
            return RunConfig(command, v, sweep=tuple(
                sweep_config(spec, v["eps"], v["grid_step"])
                for spec in parse_sweep(v["specs"])))
        spec = ConeSpec(v["m"], v["n"])
        if command == "spectrum":
            return RunConfig(command, v, spec=spec, spectral=indicial_data(
                spec, link_eigenvalues(spec, v["count"])))
        shooting = ShootingConfig(spec=spec, epsilon=v["eps"], s_max=v["s_max"],
                                  grid_step=v["grid_step"])
        if command == "jacobi" and not shooting.s_max > 1.0:
            raise ValueError("s_max must exceed 1 so that the curve covers s = 1")
        return RunConfig(command, v, shooting=shooting)
    except ValueError as exc:
        raise ConfigError(f"{command}: {exc}") from exc
    except OverflowError as exc:  # e.g. R^(N-1), or an int too large for a float
        raise ConfigError(f"{command}: a value leaves the float range: {exc}") from exc


def _finish(out: Path, cfg: RunConfig, t_start: float, data_files: list[Path],
            metrics: dict) -> None:
    manifest = {
        "config": {"command": cfg.command, **cfg.values},
        "version": __version__,
        "wall_time_s": time.monotonic() - t_start,
        "checksums": file_checksums(data_files, out),
        "metrics": metrics,
    }
    write_json(out / "manifest.json", manifest)


def _cmd_spectrum(cfg: RunConfig, out: Path, t_start: float) -> int:
    spec, data = cfg.spec, cfg.spectral
    if cfg.values["format"] == "json":
        path = out / "spectrum.json"
        write_json(path, asdict(data))
    else:
        path = out / "spectrum.csv"
        j = np.arange(len(data.lambdas))
        write_csv(
            path,
            ["j", "lambda", "Lambda_re", "Lambda_im", "root_minus", "root_plus"],
            [j, np.array(data.lambdas), np.array(data.Lambda_re), np.array(data.Lambda_im),
             np.array([p[0] for p in data.indicial_roots]),
             np.array([p[1] for p in data.indicial_roots])],
        )
    metrics = {
        "stable": data.stable,
        "j0": data.j0,
        "Lambda0_re": data.Lambda_re[0],
        "predicted_nu_bar": predicted_nu_bar(spec),
    }
    _finish(out, cfg, t_start, [path], metrics)
    print(f"spectrum ({spec.m},{spec.n}): stable={data.stable} j0={data.j0} -> {path}")
    return EXIT_OK


#: CSV emission is decimated to at most this many rows (deterministic stride);
#: computations always run on the full grid.
CSV_MAX_ROWS = 20000


def _stride(n: int) -> slice:
    return slice(None, None, max(1, -(-n // CSV_MAX_ROWS)))


def _profile_csv(out: Path, curve, trace) -> Path:
    path = out / "profile.csv"
    sl = _stride(len(curve.s))
    write_csv(
        path,
        ["s", "a", "b", "phi", "alpha", "A2", "trA3", "zeta0", "Hres"],
        [c[sl] for c in (curve.s, curve.a, curve.b, curve.phi, trace.alpha,
                         trace.A2, trace.trA3, trace.zeta0, trace.Hres)],
    )
    return path


def _cmd_profile(cfg: RunConfig, out: Path, t_start: float) -> int:
    curve = integrate_profile(cfg.shooting)
    trace = geometry_trace(curve)
    files = [_profile_csv(out, curve, trace)]
    hres_sup = float(np.max(np.abs(trace.Hres)))
    metrics = {
        "H_residual_sup": hres_sup,
        "arc_defect_sup": float(np.max(arc_length_defect(curve))),
        "crossings": cone_crossings(curve),
        "b_over_a_end": float(curve.b[-1] / curve.a[-1]),
        "accepted_steps": curve.accepted_steps,
    }
    _finish(out, cfg, t_start, files, metrics)
    print(f"profile ({curve.spec.m},{curve.spec.n}): Hres_sup={hres_sup:.3e} -> {files[0]}")
    if not hres_sup <= 1e-7:
        raise NumericalTargetMiss(f"H-residual {hres_sup:.3e} exceeds 1e-7")
    return EXIT_OK


def _cmd_jacobi(cfg: RunConfig, out: Path, t_start: float) -> int:
    spec = cfg.shooting.spec
    sol = solve_jacobi(cfg.shooting)
    report = decay_diagnostics(sol, spec)
    origin = near_origin_behavior(sol, spec)
    files = [_profile_csv(out, sol.curve, sol.trace)]

    jac_path = out / "jacobi.csv"
    sl = _stride(len(sol.s))
    write_csv(
        jac_path,
        ["s", "t", "p", "V", "ftilde", "psi", "dpsi", "residual"],
        [c[sl] for c in (sol.s, sol.t, sol.ef.p, sol.ef.V, sol.ef.f_tilde,
                         sol.psi, sol.dpsi, sol.residual_pointwise)],
    )
    files.append(jac_path)

    report["near_origin"] = {
        "exponent": origin.exponent,
        "log_coeff": origin.log_coeff,
        "log_detected": origin.log_detected,
    }
    report_path = out / "decay_report.json"
    write_json(report_path, report)
    files.append(report_path)

    f_sup = float(np.max(np.abs(sol.f)))
    target = RESIDUAL_TARGET_FACTOR * (1.0 + f_sup)
    res = sol.residual
    metrics = {
        "residual_sup": res,
        "residual_target": target,
        "t0": sol.ef.t0,
        "t1": sol.ef.t1,
        "psi_atol": sol.atol,
        "psi_nfev": sol.nfev,
        "wronskian_drift_left": sol.left_pair.wronskian_drift,
        "wronskian_drift_middle": sol.middle_pair.wronskian_drift,
        "near_origin_exponent": origin.exponent,
        "log_detected": origin.log_detected,
        "weighted_sups": report["sups"],
    }
    _finish(out, cfg, t_start, files, metrics)
    print(f"jacobi ({spec.m},{spec.n}): residual={res:.3e} "
          f"(target {target:.3e}) -> {jac_path}")
    if not res <= target:
        raise NumericalTargetMiss(f"residual {res:.3e} exceeds {target:.3e}")
    return EXIT_OK


def _cmd_plateau(cfg: RunConfig, out: Path, t_start: float) -> int:
    N, R = cfg.values["N"], cfg.values["R"]
    graph, zeta0, fit, flux_res = cfg.plateau
    path = out / "plateau.csv"
    write_csv(path, ["r", "v", "dv", "zeta0", "flux_residual"],
              [graph.r, graph.v, graph.dv, zeta0, graph.flux_residual])
    metrics = {
        "alphaR": graph.alphaR,
        "flux_residual_sup": flux_res,
        "zeta0_exponent": fit.exponent,
        "expected_exponent": 2 - N,
        "decay_coeff": graph.decay_coeff,
    }
    _finish(out, cfg, t_start, [path], metrics)
    print(f"plateau N={N} R={R}: flux residual {flux_res:.2e}, "
          f"zeta0 exponent {fit.exponent:.4f} -> {path}")
    if not flux_res <= FLUX_TARGET:
        raise NumericalTargetMiss(f"flux residual {flux_res:.3e} exceeds {FLUX_TARGET:.1e}")
    return EXIT_OK


def report_row(shooting: ShootingConfig, out: Path) -> dict:
    row, curve, trace = sweep_row(shooting)
    spec = shooting.spec
    sub = out / f"m{spec.m}n{spec.n}"
    sub.mkdir(parents=True, exist_ok=True)
    _profile_csv(sub, curve, trace)
    return row


def _cmd_report(cfg: RunConfig, out: Path, t_start: float) -> int:
    rows = [report_row(shooting, out) for shooting in cfg.sweep]
    rows.sort(key=lambda r: (r["m"], r["n"]))
    if cfg.values["format"] == "json":
        path = out / "report.json"
        write_json(path, {"rows": rows})
    else:
        path = out / "report.csv"
        keys = ["m", "n", "N", "stable", "predicted_nu_bar", "fitted_exponent",
                "oscillatory", "nearest_root", "gap", "crossings"]
        write_csv(path, keys, [np.array([row[k] for row in rows]) for k in keys])
    files = [path] + [out / f"m{sh.spec.m}n{sh.spec.n}" / "profile.csv" for sh in cfg.sweep]
    metrics = {"rows": len(rows), "max_gap": max(r["gap"] for r in rows)}
    _finish(out, cfg, t_start, files, metrics)
    print(f"report: {len(rows)} specs, max fitted-vs-indicial gap "
          f"{metrics['max_gap']:.4f} -> {path}")
    return EXIT_OK


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "profile": _cmd_profile,
    "jacobi": _cmd_jacobi,
    "plateau": _cmd_plateau,
    "report": _cmd_report,
}


def _csv_or_json(text: str) -> str:
    if text not in ("csv", "json"):
        raise ValueError(f"expected csv or json, got {text!r}")
    return text


_CONE = ("spectrum", "profile", "jacobi")
_SHOOTING = ("profile", "jacobi", "report")

#: Every cjl option, once; a subcommand takes exactly those naming it in ``defaults``.
OPTIONS = (
    Option("m", int, "sphere factor dimension m >= 2", dict.fromkeys(_CONE)),
    Option("n", int, "sphere factor dimension n >= 2", dict.fromkeys(_CONE)),
    Option("N", int, "ambient graph dimension N >= 3", {"plateau": 3}),
    Option("R", float, "inner radius", {"plateau": 1.0}),
    Option("r_max", float, "outer radius (default 2000 R)", {"plateau": lambda v: 2.0e3 * v["R"]}),
    Option("s_max", float, "arc length to integrate to", {"profile": 200.0, "jacobi": 2100.0}),
    Option("eps", float, "series start offset", dict.fromkeys(_SHOOTING, 1e-3)),
    Option("grid_step", float, "log-s sample spacing",
           {"profile": 1e-4, "jacobi": 1e-4, "report": SWEEP_GRID_STEP}),
    Option("count", int, "eigenvalue count", {"spectrum": 12}),
    Option("format", _csv_or_json, "csv or json", {"spectrum": "json", "report": "json"}),
    Option("specs", str, "sweep, e.g. '2,2;3,3'", {"report": DEFAULT_SWEEP}),
    Option("out", str, "output directory (default $CJL_OUT or ./cjl_out)",
           dict.fromkeys(_COMMANDS, lambda v: os.environ.get("CJL_OUT", "cjl_out"))),
)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cjl", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--version", action="version", version=f"cjl {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        sp = sub.add_parser(command)
        sp.add_argument("--config", help="key = value config file; flags override it")
        for opt in OPTIONS:
            if command in opt.defaults:
                default = opt.defaults[command]
                note = " (required)" if default is None else f" (default {default})"
                note = "" if callable(default) else note
                sp.add_argument(opt.flag, dest=opt.name, help=opt.help + note)
    return ap


def configure(argv: list[str] | None = None) -> RunConfig:
    """Parse ``argv`` and its config file, then :func:`check_inputs`.

    argparse exits 2 on a flag the subcommand does not take.
    """
    args = build_parser().parse_args(argv)
    raw = _parse_config_file(Path(args.config)) if args.config else {}
    raw.update((o.name, getattr(args, o.name)) for o in OPTIONS
               if getattr(args, o.name, None) is not None)
    return check_inputs(args.command, raw)


def main(argv: list[str] | None = None) -> int:
    t_start = time.monotonic()
    try:
        cfg = configure(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out = Path(cfg.values["out"])
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        print(f"error: output directory not writable: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        return _COMMANDS[cfg.command](cfg, out, t_start)
    except NumericalTargetMiss as exc:
        print(f"numerical target missed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except DiagnosticError as exc:
        print(f"diagnostic failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except IntegrationFailure as exc:
        print(f"integration failure: {exc} (last s = {exc.last_s:.6g})", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
