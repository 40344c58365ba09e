"""Command-line front end.

Subcommands: catalog residual, radial shoot|fit, elliptic delta-wing|
continuation, csf run|compare, analyze sx|jacobi|firstvar, export obj.
The command line is the whole input of a run; each report records it,
shell-quoted, as its command.  Long options cannot be abbreviated.  Exit
codes: 0 success; 1, with one "error: ..." line, when the library refuses
the input (TranslabError) or a file fails (OSError); 2 when argparse
refuses the command line (its error(), also for --theta off --kind tilted).
"""

from __future__ import annotations

import argparse
import shlex
import sys

from . import __version__, analysis, catalog, csf, elliptic, io as tio, radial
from .errors import TranslabError


def _build_parser():
    ap = argparse.ArgumentParser(prog="translab",
                                 description="translating-soliton laboratory")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    cat = sub.add_parser("catalog", help="closed-form translators")
    cats = cat.add_subparsers(dest="subcommand", required=True)
    res = cats.add_parser("residual", help="grid residual of an analytic translator")
    res.add_argument("--kind", choices=["grim", "tilted", "plane"], default="grim")
    res.add_argument("--theta", type=float, default=0.0,
                     help="tilt of --kind tilted; grim is theta = 0")
    res.add_argument("--h", type=float, default=0.01)
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
    frun.add_argument("--out", required=True, help="singularity log CSV")
    frun.add_argument("--report", default=None, help="verdict JSON")
    fcmp = flows.add_parser("compare", help="comparison principle check")
    fcmp.add_argument("--shape1", type=_shape_axes, default="circle:1",
                      help="circle:R or ellipse:a:b")
    fcmp.add_argument("--shape2", type=_shape_axes, default="circle:2")
    fcmp.add_argument("--gap", type=float, default=0.0,
                      help="horizontal center offset of shape2")
    fcmp.add_argument("--n", type=int, default=256)
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
    fv.add_argument("--bump", type=_bump, default="0,0,1.5", help="cx,cy,radius")

    exp = sub.add_parser("export", help="mesh export")
    exps = exp.add_subparsers(dest="subcommand", required=True)
    obj = exps.add_parser("obj", help="grid or profile CSV to OBJ")
    obj.add_argument("--in", dest="infile", required=True)
    obj.add_argument("--out", required=True)

    res.set_defaults(error=res.error)   # for --theta off --kind tilted
    # --rep for --report is a usage error: an option is spelled in full
    for p in (res, shoot, fit, wing, cont, frun, fcmp, sx, jac, fv, obj):
        p.allow_abbrev = False
    return ap


def _shape_axes(spec: str):
    """Semi-axes [a, b] of a shape spec, circle:R or ellipse:a:b."""
    kind, *nums = spec.split(":")
    try:
        axes = [float(v) for v in nums]
    except ValueError:
        axes = []
    if (kind, len(axes)) not in (("circle", 1), ("ellipse", 2)):
        raise argparse.ArgumentTypeError(
            f"expected circle:R or ellipse:a:b, not {spec!r}")
    return axes * 2 if kind == "circle" else axes


def _bump(spec: str):
    """((cx, cy), radius) of --bump cx,cy,radius."""
    try:
        cx, cy, rad = (float(v) for v in spec.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected cx,cy,radius, not {spec!r}") from None
    return (cx, cy), rad


def _emit(report, prov, path=None, **extra):
    """The JSON report of a result (io.report_to_json), with the command line
    and any extra keys, written to path or else printed."""
    text = tio.report_to_json(report, {"command": prov, **extra})
    if path:
        with open(path, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def _cmd_catalog(args, prov):
    if args.kind != "tilted" and args.theta != 0.0:
        args.error(f"--theta applies to --kind tilted, not {args.kind}")
    if args.kind == "plane":
        catalog.check_step(args.h)      # a plane has no grid to sample
        rep = catalog.plane_report()
    else:
        rep = catalog.residual_report(catalog.sample_grid(args.theta, args.h))
    _emit(rep, prov, args.out)


def _cmd_radial(args, prov):
    if args.subcommand == "shoot":
        if args.kind == "bowl":
            p = radial.shoot_bowl(args.n, args.rmax, args.h)
        else:
            p = radial.shoot_catenoid_wing(args.n, args.lam, args.rmax, args.h,
                                           radial.RadialKind(args.kind))
        tio.write_profile_csv(p, args.out)
        _emit(p, prov)
    else:
        p = tio.read_profile_csv(args.infile)
        _emit(radial.fit_asymptotics(p, args.rlo, args.rhi), prov, args.report)


def _cmd_elliptic(args, prov):
    if args.subcommand == "delta-wing":
        sol, rep = elliptic.delta_wing(args.b, args.L, args.nx, args.ny)
        if args.out:
            tio.write_grid_csv(sol, args.out)
        if args.obj:
            tio.export_grid_obj(sol, args.obj, provenance=prov)
        _emit(rep, prov, args.report)
    else:
        _, reports = elliptic.continuation_in_width(
            args.b_start, args.b_end, args.steps, L=args.L,
            nx=args.nx, ny=args.ny)
        bs, reps = zip(*reports)
        _emit(list(reps), prov, args.report,
              schema="translab-continuation/2", b=bs)


def _cmd_csf(args, prov):
    if args.subcommand == "run":
        c0 = csf.make_circle(args.radius, args.n) if args.shape == "circle" \
            else csf.make_ellipse(args.a, args.b, args.n)
        log = csf.run(c0)
        tio.write_log_csv(log, args.out)
        _emit(log, prov, args.report, schema="translab-verdict/2")
    else:
        csf.check_pairs(args.n, args.n)     # before either curve exists
        a, b = (csf.make_ellipse(*ab, args.n, center=(offset, 0.0))
                for ab, offset in ((args.shape1, 0.0), (args.shape2, args.gap)))
        _emit(csf.comparison_check(a, b), prov, args.report,
              schema="translab-comparison/2")


def _cmd_analyze(args, prov):
    if args.subcommand == "firstvar":
        spec = analysis.VariationSpec(*args.bump)   # before the file is read
    u = tio.read_grid_csv(args.infile)
    if args.subcommand == "sx":
        _emit(analysis.spruck_xiao_report(u), prov, args.report)
    elif args.subcommand == "jacobi":
        _emit({"maxJacobiDefect": analysis.jacobi_field_defect(u)}, prov)
    else:
        _emit({"firstVariation": analysis.first_variation_check(u, spec)}, prov)


def _cmd_export(args, prov):
    tio.export_obj(args.infile, args.out, prov)
    print(f"wrote {args.out}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _build_parser().parse_args(argv)
    prov = shlex.join(["translab", *argv])
    try:
        handler = {"catalog": _cmd_catalog, "radial": _cmd_radial,
                   "elliptic": _cmd_elliptic, "csf": _cmd_csf,
                   "analyze": _cmd_analyze, "export": _cmd_export}[args.command]
        handler(args, prov)
    except (TranslabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
