"""Command-line front end.

Subcommands: catalog residual, radial shoot|fit, elliptic delta-wing|
continuation, csf run|compare, analyze sx|jacobi|firstvar, export obj.
A JSON config file (--config, after the subcommand) presets long-option
values; explicit flags override it and unknown config keys are fatal (typos
silently corrupting numerical studies are worse than an error).  Exit codes:
0 success, 1 numerical or I/O failure (including a file that cannot be
opened), 2 usage.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, analysis, catalog, csf, elliptic, io as tio, radial
from .errors import TranslabError, UsageError
from .geom import graph_geometry


def _build_parser():
    ap = argparse.ArgumentParser(prog="translab",
                                 description="translating-soliton laboratory")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    cat = sub.add_parser("catalog", help="closed-form translators")
    cats = cat.add_subparsers(dest="subcommand", required=True)
    res = cats.add_parser("residual", help="grid residual of an analytic translator")
    res.add_argument("--kind", choices=["grim", "tilted", "plane"], default="grim")
    res.add_argument("--theta", type=float, default=0.0)
    res.add_argument("--h", type=float, default=0.01)
    res.add_argument("--half-width-frac", type=float, default=0.9)
    res.add_argument("--out", default=None, help="write JSON here instead of stdout")

    rad = sub.add_parser("radial", help="rotationally symmetric translators")
    rads = rad.add_subparsers(dest="subcommand", required=True)
    shoot = rads.add_parser("shoot", help="integrate a profile")
    shoot.add_argument("--kind", choices=["bowl", "catenoid-upper", "catenoid-lower"],
                       default="bowl")
    shoot.add_argument("--n", type=int, default=2)
    shoot.add_argument("--lam", type=float, default=1.0, help="catenoid neck radius")
    shoot.add_argument("--rmax", type=float, default=100.0)
    shoot.add_argument("--h", type=float, default=1e-3)
    shoot.add_argument("--out", required=True, help="profile CSV path")
    fit = rads.add_parser("fit", help="far-field expansion fit")
    fit.add_argument("--in", dest="infile", required=True)
    fit.add_argument("--rlo", type=float, required=True)
    fit.add_argument("--rhi", type=float, required=True)
    fit.add_argument("--report", default=None)

    ell = sub.add_parser("elliptic", help="strip Dirichlet solver")
    ells = ell.add_subparsers(dest="subcommand", required=True)
    wing = ells.add_parser("delta-wing", help="solve the wing over a strip")
    wing.add_argument("--b", type=float, required=True, help="strip half-width (> pi/2)")
    wing.add_argument("--L", type=float, default=12.0)
    wing.add_argument("--nx", type=int, default=961)
    wing.add_argument("--ny", type=int, default=161)
    wing.add_argument("--shrink", type=float, default=0.995)
    wing.add_argument("--out", default=None, help="solution grid CSV")
    wing.add_argument("--report", default=None, help="solve report JSON")
    wing.add_argument("--obj", default=None, help="OBJ mesh export")
    cont = ells.add_parser("continuation", help="march the wing family in b")
    cont.add_argument("--b-start", type=float, required=True)
    cont.add_argument("--b-end", type=float, required=True)
    cont.add_argument("--steps", type=int, default=8)
    cont.add_argument("--L", type=float, default=12.0)
    cont.add_argument("--nx", type=int, default=241)
    cont.add_argument("--ny", type=int, default=81)
    cont.add_argument("--report", default=None)

    flow = sub.add_parser("csf", help="curve shortening flow")
    flows = flow.add_subparsers(dest="subcommand", required=True)
    frun = flows.add_parser("run", help="evolve one curve to blow-up")
    frun.add_argument("--shape", choices=["circle", "ellipse"], default="circle")
    frun.add_argument("--radius", type=float, default=1.0)
    frun.add_argument("--a", type=float, default=2.0)
    frun.add_argument("--b", type=float, default=1.0)
    frun.add_argument("--n", type=int, default=256)
    frun.add_argument("--dt-safety", type=float, default=csf.FlowConfig.dtSafety)
    frun.add_argument("--stop-amax", type=float, default=csf.FlowConfig.stopAmax)
    frun.add_argument("--out", required=True, help="singularity log CSV")
    frun.add_argument("--report", default=None, help="verdict JSON")
    fcmp = flows.add_parser("compare", help="comparison principle check")
    fcmp.add_argument("--shape1", default="circle:1", help="circle:R or ellipse:a:b")
    fcmp.add_argument("--shape2", default="circle:2")
    fcmp.add_argument("--gap", type=float, default=0.0,
                      help="horizontal center offset of shape2")
    fcmp.add_argument("--n", type=int, default=256)
    fcmp.add_argument("--stop-amax", type=float, default=csf.FlowConfig.stopAmax)
    fcmp.add_argument("--report", default=None)

    ana = sub.add_parser("analyze", help="translator diagnostics on a grid CSV")
    anas = ana.add_subparsers(dest="subcommand", required=True)
    sx = anas.add_parser("sx", help="convexity-identity report")
    sx.add_argument("--in", dest="infile", required=True)
    sx.add_argument("--report", default=None)
    jac = anas.add_parser("jacobi", help="stability operator on <e3, N>")
    jac.add_argument("--in", dest="infile", required=True)
    fv = anas.add_parser("firstvar", help="first variation of weighted area")
    fv.add_argument("--in", dest="infile", required=True)
    fv.add_argument("--bump", default="0,0,1.5", help="cx,cy,radius")
    fv.add_argument("--eps", type=float, default=1e-4)

    exp = sub.add_parser("export", help="mesh export")
    exps = exp.add_subparsers(dest="subcommand", required=True)
    obj = exps.add_parser("obj", help="grid or profile CSV to OBJ")
    obj.add_argument("--in", dest="infile", required=True)
    obj.add_argument("--out", required=True)
    obj.add_argument("--angular-samples", type=int, default=128)

    # after the subcommand only: a group parser's default would overwrite it
    for p in (res, shoot, fit, wing, cont, frun, fcmp, sx, jac, fv, obj):
        p.add_argument("--config", default=None, help="JSON config file; "
                       "flags override its values; unknown keys are fatal")
    return ap


def _apply_config(ap, argv, args):
    """Merge a JSON config under explicit flags (strict key checking); each
    value goes through its option's argparse type and choices.

    Explicit detection matches exact long-option spellings in argv, so config
    precedence requires unabbreviated flags.
    """
    if not args.config:
        return args
    with open(args.config) as f:
        try:
            cfg = json.load(f)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config {args.config}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError("config must be a JSON object")
    parser = ap
    for name in (args.command, args.subcommand):
        parser = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices[name]
    options = {a.dest: a for a in parser._actions if a.dest in vars(args)}
    explicit = {a.dest for a in options.values() for tok in argv
                if tok.split("=")[0] in a.option_strings}
    for key, val in cfg.items():
        opt = options.get(key.replace("-", "_"))
        if opt is None:
            raise UsageError(f"unknown config key: {key!r}")
        if opt.dest in explicit:
            continue
        try:
            val = (opt.type or str)(str(val))
        except ValueError as exc:
            raise UsageError(f"config key {key!r}: {exc}") from exc
        if opt.choices is not None and val not in opt.choices:
            raise UsageError(f"config key {key!r}: invalid choice {val!r}")
        setattr(args, opt.dest, val)
    return args


def _parse_shape(spec: str, n: int, offset: float = 0.0):
    kind, *nums = spec.split(":")
    try:
        axes = [float(v) for v in nums]
    except ValueError as exc:
        raise UsageError(f"bad shape spec {spec!r}") from exc
    if (kind, len(axes)) == ("circle", 1):
        return csf.make_circle(axes[0], n, center=(offset, 0.0))
    if (kind, len(axes)) == ("ellipse", 2):
        return csf.make_ellipse(*axes, n, center=(offset, 0.0))
    raise UsageError(f"bad shape spec {spec!r}")


def _emit(text: str, path):
    if path:
        with open(path, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def _cmd_catalog(args, prov):
    if args.kind == "plane":
        rep = catalog.plane_report()
    else:
        kind = catalog.Kind.GRIM_REAPER if args.kind == "grim" \
            else catalog.Kind.TILTED_GRIM_REAPER
        t = catalog.AnalyticTranslator(kind, args.theta)
        g = catalog.sample_grid(t, args.h, args.half_width_frac)
        rep = catalog.residual_report(g)
    _emit(tio.report_to_json(rep, {"command": prov}), args.out)


def _cmd_radial(args, prov):
    if args.subcommand == "shoot":
        if args.kind == "bowl":
            p = radial.shoot_bowl(args.n, args.rmax, args.h)
        else:
            up, lo = radial.shoot_catenoid(args.n, args.lam, args.rmax, args.h)
            p = up if args.kind == "catenoid-upper" else lo
        tio.write_profile_csv(p, args.out)
        print(f"wrote {args.out} ({len(p.r)} samples)")
    else:
        p = tio.read_profile_csv(args.infile)
        fit = radial.fit_asymptotics(p, args.rlo, args.rhi)
        _emit(tio.report_to_json(fit, {"command": prov}), args.report)


def _cmd_elliptic(args, prov):
    if args.subcommand == "delta-wing":
        sol, rep = elliptic.delta_wing(args.b, args.L, args.nx, args.ny,
                                       shrink=args.shrink)
        if args.out:
            tio.write_grid_csv(sol, args.out)
        if args.obj:
            tio.export_grid_obj(sol, args.obj, provenance=prov)
        _emit(tio.report_to_json(rep, {"command": prov}), args.report)
    else:
        _, reports = elliptic.continuation_in_width(
            args.b_start, args.b_end, args.steps, L=args.L,
            nx=args.nx, ny=args.ny)
        payload = {"command": prov,
                   "schema": "translab-continuation/1",
                   "b": [b for b, _ in reports],
                   "k": [r.k for _, r in reports],
                   "iterations": [r.iterations for _, r in reports],
                   "factorizations": [r.factorizations for _, r in reports]}
        _emit(tio.report_to_json(payload), args.report)


def _cmd_csf(args, prov):
    cfg = csf.FlowConfig(dtSafety=args.dt_safety, stopAmax=args.stop_amax) \
        if args.subcommand == "run" else csf.FlowConfig(stopAmax=args.stop_amax)
    if args.subcommand == "run":
        c0 = csf.make_circle(args.radius, args.n) if args.shape == "circle" \
            else csf.make_ellipse(args.a, args.b, args.n)
        log = csf.run(c0, cfg)
        tio.write_log_csv(log, args.out)
        verdict = {"command": prov, "schema": "translab-verdict/1",
                   "fittedT": log.fittedT,
                   "typeVerdict": log.typeVerdict.value if log.typeVerdict else None,
                   "Climsup": log.Climsup, "samples": len(log.times),
                   "stopReason": log.stopReason}
        _emit(tio.report_to_json(verdict), args.report)
    else:
        a = _parse_shape(args.shape1, args.n)
        b = _parse_shape(args.shape2, args.n, offset=args.gap)
        rep = csf.comparison_check(a, b, cfg)
        payload = {"command": prov, "schema": "translab-comparison/1",
                   "verdict": "PASS" if rep.verdict else "FAIL",
                   "tolerance": rep.tolerance,
                   "initialDistance": float(rep.minDistance[0]),
                   "minDistance": float(rep.minDistance.min()),
                   "finalTime": float(rep.times[-1]),
                   "steps": rep.steps, "stopReason": rep.stopReason}
        _emit(tio.report_to_json(payload), args.report)


def _cmd_analyze(args, prov):
    u = tio.read_grid_csv(args.infile)
    geom = graph_geometry(u)
    if args.subcommand == "sx":
        rep = analysis.spruck_xiao_report(u, geom)
        _emit(tio.report_to_json(rep, {"command": prov}), args.report)
    elif args.subcommand == "jacobi":
        val = analysis.jacobi_field_defect(u, geom)
        print(json.dumps({"maxJacobiDefect": val, "command": prov}))
    else:
        try:
            cx, cy, rad = (float(v) for v in args.bump.split(","))
        except ValueError as exc:
            raise UsageError(f"bad --bump {args.bump!r}") from exc
        spec = analysis.VariationSpec(center=(cx, cy), radius=(rad, rad),
                                      epsilon=args.eps)
        val = analysis.first_variation_check(u, spec)
        print(json.dumps({"firstVariation": val, "command": prov}))


def _cmd_export(args, prov):
    with open(args.infile) as f:
        head = f.readline()
    if head.startswith("# translab-grid"):
        tio.export_grid_obj(tio.read_grid_csv(args.infile), args.out,
                            provenance=prov)
    elif head.startswith("# translab-profile"):
        tio.export_revolution_obj(tio.read_profile_csv(args.infile), args.out,
                                  samples=args.angular_samples, provenance=prov)
    else:
        raise UsageError(f"{args.infile}: unrecognized CSV header")
    print(f"wrote {args.out}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
        args = _apply_config(ap, argv, args)
        prov = "translab " + " ".join(argv)
        handler = {"catalog": _cmd_catalog, "radial": _cmd_radial,
                   "elliptic": _cmd_elliptic, "csf": _cmd_csf,
                   "analyze": _cmd_analyze, "export": _cmd_export}[args.command]
        handler(args, prov)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (TranslabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
