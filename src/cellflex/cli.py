"""Command-line interface.

Subcommands:

* ``validate``           - load a scenario, print its plant census.
* ``simulate``           - zero-offset baseline run; prints/writes PCC series.
* ``dispatch``           - disaggregate a flexibility request; writes
                           dispatch.csv, iterations.csv and summary.json.
* ``sweep-temperature``  - Basin Hopping's temperature panel on one dispatch
                           step (``temperature_panel``; its defaults are
                           acceptance criterion 6's): the mean candidate OF
                           per temperature over several seeds, written to
                           sweep_summary.json plus one iteration log per
                           temperature.
* ``oracle``             - compare the dispatcher against the exhaustive
                           grid-search oracle on the built-in toy cell.

Exit codes: 0 success, 1 configuration/scenario errors and unusable output
paths, 2 runtime failures (power-flow or dispatch aborts; argparse usage
errors also exit 2).
"""

import argparse
import contextlib
import json
import logging
import pathlib
import sys

from .dispatch import STALL_ITERATIONS, run_dispatch, temperature_panel
from .errors import CellflexError, ConfigurationError, DispatchError, PowerFlowError
from .optimizer import BasinHoppingConfig, FlexibilityRequest, NelderMeadSettings
from .reporting import (
    summary_dict,
    write_dispatch_csv,
    write_iterations_csv,
    write_panel,
    write_summary_json,
)
from .scenario import load_bundled_scenario, load_scenario
from .twin import CellTwin

log = logging.getLogger("cellflex.cli")


def _load(args):
    if args.scenario is None:
        return load_bundled_scenario()
    return load_scenario(args.scenario)


def _add_common(parser):
    parser.add_argument("--scenario", default=None,
                        help="scenario JSON path (default: bundled rural cell)")


def _add_optimizer_flags(parser):
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--n-iter", type=int,
                        default=BasinHoppingConfig.n_iter,
                        help="Basin Hopping iterations per dispatch step, at "
                             "most; Basin Hopping refines the step's start "
                             "(an exchange pass from zero offsets on step 0, "
                             "from the previous step's offsets later) "
                             f"and stops after {STALL_ITERATIONS} iteration(s) "
                             "in a row without a better candidate")


def _config(args):
    return BasinHoppingConfig(n_iter=args.n_iter, seed=args.seed)


def _parse_list(flag, text, kind, noun):
    """The comma-separated ``kind`` values of ``text``, blank entries skipped."""
    values = []
    for entry in text.split(","):
        entry = entry.strip()
        if not entry:
            continue
        try:
            value = kind(entry)
        except ValueError:
            raise ConfigurationError(f"{flag}: '{entry}' is not {noun}") from None
        if value in values:
            raise ConfigurationError(f"{flag}: '{entry}' is named twice")
        values.append(value)
    if not values:
        raise ConfigurationError(f"{flag} must name at least one value")
    return values


@contextlib.contextmanager
def _output_dir(path):
    """Create the output directory ``path`` before the work it holds, so an
    unusable path fails first; a run that is then rejected removes the
    directories this made again."""
    out = pathlib.Path(path)
    made = [d for d in (out, *out.parents) if not d.exists()]  # innermost first
    out.mkdir(parents=True, exist_ok=True)
    try:
        yield out
    except CellflexError:
        for d in made:
            d.rmdir()
        raise


@contextlib.contextmanager
def _output_file(path):
    """Open the output file ``path`` before the work that fills it, so an
    unusable path fails first; appending leaves an existing file's content
    until it is rewritten, and a run that is then rejected removes the file
    if this made it."""
    out = pathlib.Path(path)
    made = not out.exists()
    out.open("a", encoding="utf-8").close()
    try:
        yield out
    except CellflexError:
        if made:
            out.unlink()
        raise


def _cmd_validate(args):
    scenario = _load(args)
    census = scenario.plant_census()
    print(json.dumps({"name": scenario.name, "census": census}, indent=2,
                     sort_keys=True))
    return 0


def _cmd_simulate(args):
    scenario = _load(args)
    scenario.check_horizon(args.steps)
    with _output_file(args.out) if args.out else contextlib.nullcontext():
        twin = CellTwin(scenario)
        ref = twin.run_warmup()
        rows = [(0.0, ref.pcc_p_kw, ref.pcc_q_kvar)]
        for _ in range(args.steps):
            twin.step_dispatch_interval()
            res = twin.solve()
            rows.append((twin.t_s, res.pcc.p_kw, res.pcc.q_kvar))
    lines = ["t_s,p_pcc_kw,q_pcc_kvar"]
    lines += [f"{t:.9g},{p:.9g},{q:.9g}" for t, p, q in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        pathlib.Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_dispatch(args):
    scenario = _load(args)
    with _output_dir(args.out) as out:
        run = run_dispatch(
            scenario,
            FlexibilityRequest(args.dp_kw, args.dq_kvar),
            n_steps=args.steps,
            config=_config(args),
            initial_bes_soc=args.bes_soc,
        )
    write_dispatch_csv(run, out / "dispatch.csv")
    write_iterations_csv(run, out / "iterations.csv")
    write_summary_json(run, out / "summary.json")
    summary = summary_dict(run)
    print(json.dumps(summary["tracking"], indent=2, sort_keys=True))
    print(f"wrote {out}/dispatch.csv , iterations.csv , summary.json "
          f"({run.runtime_s:.1f}s)", file=sys.stderr)
    return 0


def _cmd_sweep_temperature(args):
    scenario = _load(args)
    temperatures = _parse_list("--temperatures", args.temperatures, float,
                               "a number")
    seeds = _parse_list("--seeds", args.seeds, int, "an integer")
    tag_of = {}
    for t_bh in temperatures:
        # a temperature's outputs are keyed by its %g tag
        tag = f"{t_bh:g}"
        if tag in tag_of:
            raise ConfigurationError(
                f"--temperatures: '{tag_of[tag]!r}' and '{t_bh!r}' share the "
                f"output tag '{tag}'")
        tag_of[tag] = t_bh
    # acceptance criterion 6's step size and Nelder-Mead budget
    config = BasinHoppingConfig(n_iter=args.n_iter, step_size=4.0,
                                nm=NelderMeadSettings(maxfev=45))
    with _output_dir(args.out) as out:
        means, results = temperature_panel(
            scenario, FlexibilityRequest(args.dp_kw, args.dq_kvar),
            temperatures, seeds, config)
    summary = write_panel(temperatures, seeds, means, results, out)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_oracle(args):
    from .oracle import grid_search_oracle, make_toy_scenario

    scenario = make_toy_scenario()
    request = FlexibilityRequest(args.dp_kw, args.dq_kvar)
    config = _config(args)
    oracle = grid_search_oracle(scenario, request)
    step = run_dispatch(scenario, request, n_steps=1, config=config).steps[0]

    report = {
        "oracle_of": oracle.of,
        "oracle_x": [float(v) for v in oracle.x],
        "oracle_evals": oracle.n_evals,
        "oracle_points": oracle.n_points,
        "oracle_pruned": oracle.n_pruned,
        "dispatcher_of": step.of,
        "dispatcher_x": [float(v) for v in step.offsets],
        "gap": step.of - oracle.of,
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cellflex",
        description="Energy-cell digital twin and flexibility dispatcher")
    parser.add_argument("-v", "--verbose", action="count", default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario file and print its census")
    _add_common(p)

    p = sub.add_parser("simulate", help="zero-offset baseline PCC series")
    _add_common(p)
    p.add_argument("--steps", type=int, default=40)
    p.add_argument("--out", default=None, help="CSV output path (default: stdout)")

    p = sub.add_parser("dispatch", help="disaggregate a flexibility request")
    _add_common(p)
    _add_optimizer_flags(p)
    p.add_argument("--dp-kw", type=float, required=True)
    p.add_argument("--dq-kvar", type=float, default=0.0)
    p.add_argument("--steps", type=int, default=40)
    p.add_argument("--bes-soc", type=float, default=None,
                   help="override all battery SOCs before the reference capture")
    p.add_argument("--out", default="out")

    p = sub.add_parser("sweep-temperature",
                       help="Basin Hopping's temperature panel on one "
                            "dispatch step (acceptance criterion 6)")
    _add_common(p)
    p.add_argument("--temperatures", default="0.2,0.5,2,10")
    p.add_argument("--seeds", default="5,11,23,31,47",
                   help="one Basin Hopping search per seed and temperature")
    p.add_argument("--dp-kw", type=float, default=28.0)
    p.add_argument("--dq-kvar", type=float, default=1.0)
    p.add_argument("--n-iter", type=int, default=120,
                   help="Basin Hopping iterations per search, all run")
    p.add_argument("--out", default="out/sweep")

    p = sub.add_parser("oracle",
                       help="compare dispatcher vs grid-search oracle on the toy cell")
    _add_optimizer_flags(p)
    p.add_argument("--dp-kw", type=float, default=1.0)
    p.add_argument("--dq-kvar", type=float, default=0.3)

    return parser


_COMMANDS = {
    "validate": _cmd_validate,
    "simulate": _cmd_simulate,
    "dispatch": _cmd_dispatch,
    "sweep-temperature": _cmd_sweep_temperature,
    "oracle": _cmd_oracle,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    level = (logging.WARNING, logging.INFO, logging.DEBUG)[min(args.verbose, 2)]
    logging.basicConfig(level=level, format="%(name)s %(levelname)s %(message)s")
    try:
        return _COMMANDS[args.command](args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DispatchError, PowerFlowError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    except CellflexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # an output path that cannot be created or written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
