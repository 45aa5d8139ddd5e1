"""Command-line front end.

Subcommands::

    cjl spectrum --m M --n N        link spectrum, indicial roots -> spectrum.json
    cjl profile  --m M --n N        profile curve + geometry      -> profile.csv
    cjl jacobi   --m M --n N        full pipeline with f = tr(A^3)
                                    -> profile.csv, jacobi.csv, decay_report.json
    cjl plateau  --N N --R R        radial exterior graph         -> plateau.csv
    cjl report                      sweep of specs, fitted vs predicted decay
                                    -> report.json (or report.csv)

A run directory receives the data files plus ``manifest.json`` (config
echo, tool version, wall time, sha256 checksums, summary metrics),
written last.  Data files are deterministic: two runs with identical
configuration are byte-identical.  The default output directory is
``$CJL_OUT`` or ``./cjl_out``.

Configuration may also come from a ``key = value`` text file passed via
``--config``; command-line flags override file values.  Exit codes:
0 success, 2 usage/config error, 3 I/O error, 4 numerical target miss.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cjlab import __version__
from cjlab.decay import fit_power_law, classify_against_indicial
from cjlab.io import file_checksums, write_csv, write_json
from cjlab.jacobi import (
    decay_diagnostics,
    near_origin_behavior,
    residual_sup,
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
    indicial_data,
    link_eigenvalues,
    predicted_nu_bar,
    regime_of,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

RESIDUAL_TARGET_FACTOR = 1e-6  # jacobi: residual <= factor * (1 + max|f|)
FLUX_TARGET = 1e-10
DEFAULT_SWEEP = "2,2;2,3;3,3;4,4"


class NumericalTargetMiss(RuntimeError):
    pass


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str
    m: int | None = None
    n: int | None = None
    N: int | None = None
    R: float = 1.0
    s_max: float | None = None
    r_max: float | None = None
    eps: float = 1e-3
    tol: float = 1e-12
    out: Path = field(default_factory=lambda: Path(os.environ.get("CJL_OUT", "cjl_out")))
    format: str = "json"
    count: int = 12
    grid_step: float | None = None
    specs: str = DEFAULT_SWEEP

    def cone_spec(self) -> ConeSpec:
        if self.m is None or self.n is None:
            raise ConfigError("this command requires --m and --n")
        try:
            return ConeSpec(self.m, self.n)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    def echo(self) -> dict:
        keys = ["command", "m", "n", "N", "R", "s_max", "r_max", "eps", "tol",
                "format", "count", "grid_step", "specs"]
        d = {k: getattr(self, k) for k in keys}
        d["out"] = str(self.out)
        return d


def _parse_config_file(path: Path) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = path.read_text()
    except OSError as exc:
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


_CONFIG_TYPES = {
    "m": int, "n": int, "N": int, "count": int,
    "R": float, "s_max": float, "r_max": float, "eps": float, "tol": float,
    "grid_step": float,
    "out": str, "format": str, "specs": str,
}


def _build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    if getattr(args, "config", None):
        for key, raw in _parse_config_file(Path(args.config)).items():
            if key not in _CONFIG_TYPES:
                raise ConfigError(f"unknown config key {key!r}")
            caster = _CONFIG_TYPES[key]
            try:
                value = caster(raw)
            except ValueError as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from exc
            setattr(cfg, key, Path(value) if key == "out" else value)
    for key in _CONFIG_TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            setattr(cfg, key, Path(flag) if key == "out" else flag)
    if cfg.format not in ("csv", "json"):
        raise ConfigError(f"unknown format {cfg.format!r}")
    if cfg.command == "spectrum" and cfg.count < 2:
        raise ConfigError(f"count must be >= 2, got {cfg.count}")
    return cfg


def _shooting_config(cfg: RunConfig, s_max_default: float, grid_default: float) -> ShootingConfig:
    try:
        return ShootingConfig(
            spec=cfg.cone_spec(),
            epsilon=cfg.eps,
            s_max=cfg.s_max if cfg.s_max is not None else s_max_default,
            rtol=cfg.tol,
            atol=cfg.tol * 1e-2,
            grid_step=cfg.grid_step if cfg.grid_step is not None else grid_default,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _finish(out: Path, cfg: RunConfig, t_start: float, data_files: list[Path],
            metrics: dict) -> None:
    manifest = {
        "config": cfg.echo(),
        "version": __version__,
        "wall_time_s": time.monotonic() - t_start,
        "checksums": file_checksums(data_files, out),
        "metrics": metrics,
    }
    write_json(out / "manifest.json", manifest)


def _cmd_spectrum(cfg: RunConfig, out: Path, t_start: float) -> int:
    spec = cfg.cone_spec()
    data = indicial_data(spec, link_eigenvalues(spec, cfg.count))
    files = []
    if cfg.format == "json":
        path = out / "spectrum.json"
        write_json(path, data.to_dict())
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
    files.append(path)
    metrics = {
        "stable": data.stable,
        "j0": data.j0,
        "Lambda0_re": data.Lambda_re[0],
        "predicted_nu_bar": predicted_nu_bar(spec, regime_of(spec)),
    }
    _finish(out, cfg, t_start, files, metrics)
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
    shooting = _shooting_config(cfg, s_max_default=200.0, grid_default=1e-4)
    curve = integrate_profile(shooting)
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
    if hres_sup > 1e-7:
        raise NumericalTargetMiss(f"H-residual {hres_sup:.3e} exceeds 1e-7")
    return EXIT_OK


def _cmd_jacobi(cfg: RunConfig, out: Path, t_start: float) -> int:
    shooting = _shooting_config(cfg, s_max_default=2100.0, grid_default=1e-4)
    curve = integrate_profile(shooting)
    trace = geometry_trace(curve)
    sol = solve_jacobi(curve, trace)
    files = [_profile_csv(out, curve, trace)]

    jac_path = out / "jacobi.csv"
    sl = _stride(len(sol.s))
    write_csv(
        jac_path,
        ["s", "t", "p", "V", "ftilde", "psi", "dpsi", "residual"],
        [c[sl] for c in (sol.s, sol.t, sol.ef.p, sol.ef.V, sol.ef.f_tilde,
                         sol.psi, sol.dpsi, sol.residual_pointwise)],
    )
    files.append(jac_path)

    origin = near_origin_behavior(sol, curve.spec)
    report = dict(sol.decay_report or decay_diagnostics(sol, curve.spec, require_coverage=False))
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
    clip_hi = min(500.0, sol.s[-1] / 2.0)
    res = residual_sup(sol.s, sol.residual_pointwise, 2.0 * sol.s[0], clip_hi)
    metrics = {
        "residual_sup": res,
        "residual_target": target,
        "t0": sol.ef.t0,
        "t1": sol.ef.t1,
        "wronskian_drift_left": sol.left_pair.wronskian_drift,
        "wronskian_drift_middle": sol.middle_pair.wronskian_drift,
        "near_origin_exponent": origin.exponent,
        "log_detected": origin.log_detected,
        "weighted_sups": report.get("sups", []),
    }
    _finish(out, cfg, t_start, files, metrics)
    print(f"jacobi ({curve.spec.m},{curve.spec.n}): residual={res:.3e} "
          f"(target {target:.3e}) -> {jac_path}")
    if res > target:
        raise NumericalTargetMiss(f"residual {res:.3e} exceeds {target:.3e}")
    return EXIT_OK


def _cmd_plateau(cfg: RunConfig, out: Path, t_start: float) -> int:
    N = cfg.N if cfg.N is not None else 3
    R = cfg.R
    r_max = cfg.r_max if cfg.r_max is not None else 2.0e3 * R
    try:
        graph = plateau_profile(N, R, r_max)
    except ValueError as exc:
        raise ConfigError(f"plateau: {exc}") from exc
    zeta0, fit = plateau_zeta0(graph)
    flux_res = minimal_graph_residual(graph)
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
    if flux_res > FLUX_TARGET:
        raise NumericalTargetMiss(f"flux residual {flux_res:.3e} exceeds {FLUX_TARGET:.1e}")
    return EXIT_OK


def _parse_sweep(text: str) -> list[ConeSpec]:
    text = text.strip()
    if not text:
        raise ConfigError("empty sweep list")
    specs = []
    for item in text.split(";"):
        item = item.strip()
        if not item:
            continue
        try:
            m_str, n_str = item.split(",")
            specs.append(ConeSpec(int(m_str), int(n_str)))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad sweep entry {item!r}: {exc}") from exc
    if not specs:
        raise ConfigError("empty sweep list")
    return specs


def sweep_row(spec: ConeSpec, eps: float = 1e-3, tol: float = 1e-12,
              grid_step: float = 1e-3) -> tuple[dict, object, object]:
    """Fitted-versus-predicted decay summary for one spec.

    Returns (row, curve, trace).  Stable specs are fitted raw on
    [50, 200]; oscillatory ones by their local-maxima envelope over
    (5, 3e5), the region where the signal sits above the integrator's
    roundoff floor (~rtol * s in zeta_0 = a b' - a' b).  Five envelope
    peaks fit in that window for every low-dimension spec at
    rtol = 1e-13.
    """
    regime = regime_of(spec)
    if regime == "high_dim":
        s_max, window, rtol = 240.0, (50.0, 200.0), tol
    else:
        s_max, window, rtol = 4.0e5, (5.0, 3.0e5), min(tol, 1e-13)
    shooting = ShootingConfig(spec=spec, epsilon=eps, s_max=s_max, rtol=rtol,
                              atol=rtol * 1e-2, grid_step=grid_step)
    curve = integrate_profile(shooting)
    trace = geometry_trace(curve)
    fit = fit_power_law(curve.s, trace.zeta0, window)
    spectral = indicial_data(spec, link_eigenvalues(spec, 16))
    cls = classify_against_indicial(fit, spectral)
    mask = curve.s <= 1.0e3
    from cjlab.profile import ProfileCurve

    short = ProfileCurve(spec=spec, start_axis=curve.start_axis, s=curve.s[mask],
                         a=curve.a[mask], b=curve.b[mask], phi=curve.phi[mask])
    row = {
        "m": spec.m,
        "n": spec.n,
        "N": spec.N,
        "stable": spectral.stable,
        "predicted_nu_bar": predicted_nu_bar(spec, regime),
        "fitted_exponent": fit.exponent,
        "oscillatory": fit.oscillatory,
        "nearest_root": cls["nearest_root"],
        "gap": cls["gap"],
        "crossings": cone_crossings(short),
        "fit": {**fit.to_dict(), "nearest_root": cls["nearest_root"], "gap": cls["gap"]},
    }
    return row, curve, trace


def report_row(spec: ConeSpec, cfg: RunConfig, out: Path) -> dict:
    row, curve, trace = sweep_row(
        spec, eps=cfg.eps, tol=cfg.tol,
        grid_step=cfg.grid_step if cfg.grid_step is not None else 1e-3,
    )
    sub = out / f"m{spec.m}n{spec.n}"
    sub.mkdir(parents=True, exist_ok=True)
    _profile_csv(sub, curve, trace)
    return row


def _cmd_report(cfg: RunConfig, out: Path, t_start: float) -> int:
    specs = _parse_sweep(cfg.specs)
    rows = [report_row(spec, cfg, out) for spec in specs]
    rows.sort(key=lambda r: (r["m"], r["n"]))
    files = []
    if cfg.format == "json":
        path = out / "report.json"
        write_json(path, {"rows": rows})
    else:
        path = out / "report.csv"
        keys = ["m", "n", "N", "stable", "predicted_nu_bar", "fitted_exponent",
                "oscillatory", "nearest_root", "gap", "crossings"]
        write_csv(path, keys, [np.array([row[k] for row in rows]) for k in keys])
    files.append(path)
    for spec in specs:
        files.append(out / f"m{spec.m}n{spec.n}" / "profile.csv")
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


def _add_common_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--m", type=int, default=None, help="sphere factor dimension m >= 2")
    sp.add_argument("--n", type=int, default=None, help="sphere factor dimension n >= 2")
    sp.add_argument("--N", type=int, default=None, help="ambient graph dimension (plateau)")
    sp.add_argument("--R", type=float, default=None, help="inner radius (plateau)")
    sp.add_argument("--s-max", dest="s_max", type=float, default=None)
    sp.add_argument("--r-max", dest="r_max", type=float, default=None)
    sp.add_argument("--eps", type=float, default=None, help="series start offset")
    sp.add_argument("--tol", type=float, default=None, help="integrator relative tolerance")
    sp.add_argument("--out", type=str, default=None, help="output directory")
    sp.add_argument("--format", type=str, default=None, choices=("csv", "json"))
    sp.add_argument("--config", type=str, default=None, help="key = value config file")
    sp.add_argument("--count", type=int, default=None, help="eigenvalue count (spectrum)")
    sp.add_argument("--grid-step", dest="grid_step", type=float, default=None,
                    help="log-s sample spacing")
    sp.add_argument("--specs", type=str, default=None,
                    help="report sweep, e.g. '2,2;3,3' (config key: specs)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cjl", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--version", action="version", version=f"cjl {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        _add_common_flags(sp)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _build_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    t_start = time.monotonic()
    out = cfg.out
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalTargetMiss as exc:
        print(f"numerical target missed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except IntegrationFailure as exc:
        print(f"integration failure: {exc} (last s = {exc.last_s:.6g})", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
