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

Only the standard library, :mod:`cjlab.spectra` and :mod:`cjlab.io` are
imported with this module, so ``cjl spectrum``, ``--help``, ``--version``
and usage errors load no numpy.  Once the spectrum and the sweep list are
checked, :func:`check_inputs` binds the :data:`_LIBRARY` names of the
modules the command runs on, so ``cjl plateau``, whose closed form runs on
Python floats, loads no numpy and neither the profile nor the Jacobi
solver; ``cjlab.cli.<name>`` binds that one name, and a
name set on the module before that (a tracing wrapper, say) is kept.

A run directory receives the data files plus ``manifest.json`` (config
echo, tool version, wall time, sha256 checksums, summary metrics),
written last.  Data files are deterministic: two runs with identical
configuration are byte-identical.  The default output directory is
``$CJL_OUT`` or ``./cjl_out``.  Exit codes: 0 success, 2 usage/config
error, 3 I/O error, 4 numerical target miss.
"""

from __future__ import annotations

import argparse
import importlib
import math
import os
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

from cjlab import DiagnosticError, IntegrationFailure, __version__
from cjlab.io import file_checksums, write_csv, write_json
from cjlab.spectra import (
    ConeSpec,
    SpectralData,
    indicial_data,
    link_eigenvalues,
    predicted_nu_bar,
    regime_of,
)

#: The solver library, bound into this module by :func:`_library` on first
#: use: name -> (module, attribute), or (module, None) for the module itself.
_LIBRARY = {
    "np": ("numpy", None),
    "decay": ("cjlab.decay", None),
    **{name: ("cjlab.profile", name) for name in (
        "GeometryTrace", "ProfileCurve", "ShootingConfig", "arc_length_defect",
        "cone_crossings", "geometry_trace", "integrate_profile")},
    **{name: ("cjlab.jacobi", name) for name in (
        "decay_diagnostics", "near_origin_behavior", "solve_jacobi")},
    **{name: ("cjlab.plateau", name) for name in (
        "minimal_graph_residual", "plateau_profile", "plateau_zeta0")},
}


#: the library modules each command past the spectrum runs on
_RUNS_ON = {
    "plateau": ("cjlab.plateau",),
    "profile": ("numpy", "cjlab.profile"),
    "jacobi": ("numpy", "cjlab.profile", "cjlab.jacobi"),
    "report": ("numpy", "cjlab.decay", "cjlab.profile"),
}


def _library(command: str) -> None:
    """Bind the :data:`_LIBRARY` names of the modules ``command`` runs on;
    a name already bound (a wrapper set on this module, say) stays."""
    for name, (module, _) in _LIBRARY.items():
        if module in _RUNS_ON[command] and name not in globals():
            _bind(name)


def _bind(name: str):
    module, attr = _LIBRARY[name]
    value = importlib.import_module(module)
    globals()[name] = value = value if attr is None else getattr(value, attr)
    return value


def __getattr__(name: str):
    """``cjlab.cli.<library name>`` imports its module and binds that name (PEP 562)."""
    if name not in _LIBRARY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return _bind(name)


EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

RESIDUAL_TARGET_FACTOR = 1e-6  # jacobi: residual <= factor * (1 + max|f|)
FLUX_TARGET = 1e-10
H_RESIDUAL_TARGET = 1e-7  # sup |Hres| of every profile.csv written

#: the report's default --specs: the four core specs
DEFAULT_SWEEP = "2,2;2,3;3,3;4,4"

#: log-s sample spacing of the sweep's profile grids
SWEEP_GRID_STEP = 1e-3

#: regime -> (s_max, fit window) of the sweep.  Stable specs are fitted raw
#: on [50, 200]; oscillatory ones by their local-maxima envelope over
#: (5, 3e5), meant to keep the signal above the integrator's roundoff floor
#: (~RTOL * s in zeta_0 = a b' - a' b).  It does not for every spec: five
#: envelope maxima clear that floor on (2,2), (2,3), (3,2) and (2,4), four on
#: (3,3) and (4,2), and two or three on the N = 6 specs (README, Numerical notes).
_SWEEP = {"high_dim": (240.0, (50.0, 200.0)), "low_dim": (4.0e5, (5.0, 3.0e5))}


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


class RunConfig(NamedTuple):
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


def parse_sweep(text: str) -> list[ConeSpec]:
    """Specs of a sweep list such as ``"2,2;3,3"``; ValueError if empty, malformed or repeated."""
    specs = []
    for item in text.split(";"):
        item = item.strip()
        if not item:
            continue
        try:
            m_str, n_str = item.split(",")
            specs.append(ConeSpec(int(m_str), int(n_str)))
        except (ValueError, TypeError) as exc:
            raise ValueError(f"bad sweep entry {item!r}: {exc}") from exc
        if specs[-1] in specs[:-1]:
            raise ValueError(f"sweep entry {item!r} repeats a spec")
    if not specs:
        raise ValueError("empty sweep list")
    return specs


def sweep_config(spec: ConeSpec, eps: float, grid_step: float) -> ShootingConfig:
    """The integration the report runs for ``spec``; ValueError if it leaves
    the fit window too few samples.

    The profile grid's log-s spacing is at most ``grid_step`` and covers the
    window, so the window holds at least log(hi/lo) / grid_step samples."""
    s_max, (lo, hi) = _SWEEP[regime_of(spec)]
    shooting = ShootingConfig(spec=spec, epsilon=eps, s_max=s_max, grid_step=grid_step)
    if math.log(hi / lo) < decay.MIN_FIT_SAMPLES * grid_step:
        raise ValueError(f"grid_step {grid_step} puts fewer than {decay.MIN_FIT_SAMPLES} "
                         f"samples in the fit window [{lo:g}, {hi:g}]")
    return shooting


def check_inputs(command: str, raw: dict[str, str]) -> RunConfig:
    """Cast and check every input of ``command``, given as option name -> text
    from flags and config file, and build the library objects it runs on
    (their constructors check them); ConfigError on any bad input.

    The spectrum and the plateau graph with its zeta_0 fit and flux residual
    take milliseconds, so they are computed here and their own errors are
    the check; the plateau CSV reuses the residual the graph keeps."""
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
        if command in _CONE:
            spec = ConeSpec(v["m"], v["n"])
            if command == "spectrum":
                return RunConfig(command, v, spec=spec, spectral=indicial_data(
                    spec, link_eigenvalues(spec, v["count"])))
        specs = parse_sweep(v["specs"]) if command == "report" else ()
        _library(command)
        if command == "plateau":
            graph = plateau_profile(v["N"], v["R"], v["r_max"])
            return RunConfig(command, v, plateau=(graph, *plateau_zeta0(graph),
                                                  minimal_graph_residual(graph)))
        if command == "report":
            return RunConfig(command, v, sweep=tuple(
                sweep_config(spec, v["eps"], v["grid_step"]) for spec in specs))
        shooting = ShootingConfig(spec=spec, epsilon=v["eps"], s_max=v["s_max"],
                                  grid_step=v["grid_step"])
        if command == "jacobi" and not shooting.s_max > 1.0:
            raise ValueError("s_max must exceed 1 so that the curve covers s = 1")
        return RunConfig(command, v, shooting=shooting)
    except ValueError as exc:
        raise ConfigError(f"{command}: {exc}") from exc
    except OverflowError as exc:  # e.g. R^(N-1), or an int too large for a float
        raise ConfigError(f"{command}: a value leaves the float range: {exc}") from exc


class Outcome(NamedTuple):
    """What a command leaves :func:`main` to finish its run with."""

    files: list[Path]  # data files, for the manifest's checksums
    metrics: dict
    summary: str  # the stdout line
    miss: str | None = None  # why the numerical target was missed


def _cmd_spectrum(cfg: RunConfig, out: Path) -> Outcome:
    spec, data = cfg.spec, cfg.spectral
    if cfg.values["format"] == "json":
        path = out / "spectrum.json"
        write_json(path, data._asdict())
    else:
        path = out / "spectrum.csv"
        write_csv(
            path,
            ["j", "lambda", "Lambda_re", "Lambda_im", "root_minus", "root_plus"],
            [range(len(data.lambdas)), data.lambdas, data.Lambda_re, data.Lambda_im,
             [p[0] for p in data.indicial_roots], [p[1] for p in data.indicial_roots]],
        )
    metrics = {
        "stable": data.stable,
        "j0": data.j0,
        "Lambda0_re": data.Lambda_re[0],
        "predicted_nu_bar": predicted_nu_bar(spec),
    }
    return Outcome([path], metrics,
                   f"spectrum ({spec.m},{spec.n}): stable={data.stable} j0={data.j0} -> {path}")


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


def _traced_profile(shooting: ShootingConfig, out: Path) -> tuple:
    """Integrate and trace ``shooting``'s profile and write its profile.csv
    into ``out``; returns (curve, trace, path)."""
    curve = integrate_profile(shooting)
    trace = geometry_trace(curve)
    out.mkdir(parents=True, exist_ok=True)
    return curve, trace, _profile_csv(out, curve, trace)


def _hres_gate(trace) -> tuple[float, str | None]:
    """sup |Hres| of a trace and why it misses :data:`H_RESIDUAL_TARGET` (or None)."""
    sup = float(np.max(np.abs(trace.Hres)))
    return sup, None if sup <= H_RESIDUAL_TARGET else f"H-residual {sup:.3e} exceeds 1e-7"


def _cmd_profile(cfg: RunConfig, out: Path) -> Outcome:
    spec = cfg.shooting.spec
    curve, trace, path = _traced_profile(cfg.shooting, out)
    hres_sup, miss = _hres_gate(trace)
    metrics = {
        "H_residual_sup": hres_sup,
        "arc_defect_sup": float(np.max(arc_length_defect(curve))),
        "crossings": cone_crossings(curve),
        "b_over_a_end": float(curve.b[-1] / curve.a[-1]),
        "rhs_evaluations": curve.accepted_steps,
    }
    return Outcome([path], metrics,
                   f"profile ({spec.m},{spec.n}): Hres_sup={hres_sup:.3e} -> {path}", miss)


def _cmd_jacobi(cfg: RunConfig, out: Path) -> Outcome:
    spec = cfg.shooting.spec
    sol = solve_jacobi(cfg.shooting)
    report = decay_diagnostics(sol)
    origin = near_origin_behavior(sol)
    files = [_profile_csv(out, sol.curve, sol.trace)]
    hres_sup, hres_miss = _hres_gate(sol.trace)

    jac_path = out / "jacobi.csv"
    sl = _stride(len(sol.curve.s))
    write_csv(
        jac_path,
        ["s", "t", "p", "V", "ftilde", "psi", "dpsi", "residual"],
        [c[sl] for c in (sol.curve.s, sol.curve.t, sol.ef.p, sol.ef.V, sol.ef.f_tilde,
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
        "dpsi_defect": sol.dpsi_defect,
        "H_residual_sup": hres_sup,
        "t0": sol.ef.t0,
        "t1": sol.ef.t1,
        "psi_atol": sol.atol,
        "psi_nfev": sol.curve.accepted_steps,
        "wronskian_drift_middle": sol.middle_pair.wronskian_drift,
        "near_origin_exponent": origin.exponent,
        "log_detected": origin.log_detected,
        "weighted_sups": report["sups"],
    }
    misses = [None if res <= target else f"residual {res:.3e} exceeds {target:.3e}", hres_miss]
    return Outcome(files, metrics,
                   f"jacobi ({spec.m},{spec.n}): residual={res:.3e} "
                   f"(target {target:.3e}) -> {jac_path}",
                   "; ".join(filter(None, misses)) or None)


def _cmd_plateau(cfg: RunConfig, out: Path) -> Outcome:
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
    return Outcome([path], metrics,
                   f"plateau N={N} R={R}: flux residual {flux_res:.2e}, "
                   f"zeta0 exponent {fit.exponent:.4f} -> {path}",
                   None if flux_res <= FLUX_TARGET
                   else f"flux residual {flux_res:.3e} exceeds {FLUX_TARGET:.1e}")


def sweep_row(curve: ProfileCurve, trace: GeometryTrace) -> dict:
    """Fitted-versus-predicted decay summary of one :func:`sweep_config` run."""
    spec = curve.spec
    fit = decay.fit_power_law(curve.s, trace.zeta0, _SWEEP[regime_of(spec)][1])
    spectral = indicial_data(spec, link_eigenvalues(spec, 16))
    cls = decay.classify_against_indicial(fit, spectral)
    mask = curve.s <= 1.0e3
    short = ProfileCurve(spec=spec, s=curve.s[mask], a=curve.a[mask], b=curve.b[mask],
                         theta=curve.theta[mask])
    return {
        "m": spec.m,
        "n": spec.n,
        "N": spec.N,
        "stable": spectral.stable,
        "predicted_nu_bar": predicted_nu_bar(spec),
        "fitted_exponent": fit.exponent,
        "oscillatory": fit.oscillatory,
        "nearest_root": cls["nearest_root"],
        "gap": cls["gap"],
        "crossings": cone_crossings(short),
        "fit": {**fit._asdict(), "nearest_root": cls["nearest_root"], "gap": cls["gap"]},
    }


def _cmd_report(cfg: RunConfig, out: Path) -> Outcome:
    rows, files, misses = [], [], []
    for shooting in cfg.sweep:
        spec = shooting.spec
        curve, trace, path = _traced_profile(shooting, out / f"m{spec.m}n{spec.n}")
        _, miss = _hres_gate(trace)
        rows.append(sweep_row(curve, trace))
        files.append(path)
        if miss is not None:
            misses.append(f"({spec.m},{spec.n}) {miss}")
    rows.sort(key=lambda r: (r["m"], r["n"]))
    if cfg.values["format"] == "json":
        path = out / "report.json"
        write_json(path, {"rows": rows})
    else:
        path = out / "report.csv"
        keys = ["m", "n", "N", "stable", "predicted_nu_bar", "fitted_exponent",
                "oscillatory", "nearest_root", "gap", "crossings"]
        write_csv(path, keys, [[row[k] for row in rows] for k in keys])
    max_gap = max(r["gap"] for r in rows)
    return Outcome([path, *files], {"rows": len(rows), "max_gap": max_gap},
                   f"report: {len(rows)} specs, max fitted-vs-indicial gap {max_gap:.4f} -> {path}",
                   "; ".join(misses) or None)


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
        files, metrics, summary, miss = _COMMANDS[cfg.command](cfg, out)
        write_json(out / "manifest.json", {
            "config": {"command": cfg.command, **cfg.values},
            "version": __version__,
            "wall_time_s": time.monotonic() - t_start,
            "checksums": file_checksums(files, out),
            "metrics": metrics,
        })
    except DiagnosticError as exc:
        print(f"diagnostic failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except IntegrationFailure as exc:
        print(f"integration failure: {exc} (last s = {exc.last_s:.6g})", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(summary)
    if miss is None:
        return EXIT_OK
    print(f"numerical target missed: {miss}", file=sys.stderr)
    return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
