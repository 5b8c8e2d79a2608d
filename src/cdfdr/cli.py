"""Command-line interface: fdr fitting, standalone pi0, and simulations.

Outputs are a structured JSON report plus plot-ready CSV curves.  Floats are
serialized with shortest round-trip precision (up to 17 significant digits),
decimal point and LF line endings regardless of locale.  The output paths are
checked before any work.  Both files are staged in ``.cdfdr-*`` directories
beside them and committed together, never renamed onto an earlier run's files,
so a failed run leaves no partial file and no mixed pair (:func:`_write_outputs`).

Exit codes: 0 success, 2 input/configuration error (an output file that
cannot be written included), 3 numerical failure (message carries the
pipeline step label).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import sys
import tempfile
import warnings
from json.encoder import encode_basestring_ascii
from itertools import chain

import numpy as np

from .density import DEFAULT_FLOOR
from .errors import (
    CdfdrError,
    ConfigError,
    DegenerateSampleError,
    InputError,
    InsufficientDataError,
)
from .pipeline import (
    CdfrModel,
    NullSpec,
    discoveries,
    evaluate,
    fit_cdfdr,
    integrate_nonnull_density,
    t_to_z,
)
from .simulate import (
    EstimatorConfig,
    MixtureNormalDesign,
    MixtureUniformDesign,
    run_replicates,
)

__all__ = ["main"]

_INPUT_ERRORS = (InputError, ConfigError, InsufficientDataError, DegenerateSampleError)

# Items of a float array or string list that report.json formats at a time,
# so the text held while it is written does not grow with the number of cases.
_JSON_BLOCK = 65_536


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------

def _float_text(values) -> list[str]:
    """Shortest round-trip text of each float, as ``repr`` writes it."""
    return list(map(float.__repr__, np.asarray(values, dtype=float).tolist()))


def _join_floats(sep: str, block) -> str:
    return sep.join(_float_text(block))


def _join_strings(sep: str, block) -> str:
    return sep.join(map(encode_basestring_ascii, block))


def _default(obj):
    """JSON form of numpy arrays and scalars; numpy floats already encode as floats."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _records_text(records: list, pad: str) -> str | None:
    """The text of ``json.dumps(records, indent=1)`` nested ``len(pad)`` levels
    deep, for a list of dicts that share one tuple of string keys and whose
    every field holds only strings, only ints or only finite floats; None for
    any other list.

    Each field is rendered as one column, and each record fills one template.
    """
    if not (records and type(records[0]) is dict and records[0]):
        return None
    keys = tuple(records[0])
    if not (all(type(key) is str for key in keys)
            and all(type(record) is dict and tuple(record) == keys for record in records)):
        return None
    columns = []
    for key in keys:
        column = [record[key] for record in records]
        kinds = set(map(type, column))
        if kinds == {str}:
            columns.append(map(encode_basestring_ascii, column))
        elif kinds == {int} or kinds == {float} and all(map(math.isfinite, column)):
            columns.append(map(repr, column))
        else:
            return None
    inner, field = pad + " ", pad + "  "
    template = "{\n" + field + (",\n" + field).join(
        encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in keys) + f"\n{inner}}}"
    return f"[\n{inner}" + (",\n" + inner).join(map(template.__mod__, zip(*columns))) + f"\n{pad}]"


def _json_text(value, pad: str = ""):
    """The text of ``json.dumps(value, indent=1, default=_default)`` in pieces,
    nested ``len(pad)`` levels deep.

    Dicts with string keys, lists of strings and 1-d float64 arrays are written
    here, an array or list :data:`_JSON_BLOCK` items at a time; lists of like
    records go through :func:`_records_text`; everything else is left to
    ``json.dumps``.  ``json`` writes non-finite floats as ``NaN``/``Infinity``
    where ``repr`` writes ``nan``/``inf``, so an array holding one is left to
    ``json.dumps`` too.
    """
    inner = pad + " "
    if (type(value) is np.ndarray and value.ndim == 1 and value.dtype == np.float64
            and value.size and np.isfinite(value).all()):
        join = _join_floats
    elif type(value) is list and set(map(type, value)) == {str}:
        join = _join_strings
    elif type(value) is dict and value and all(type(key) is str for key in value):
        sep = "{\n" + inner
        for key, item in value.items():
            yield f"{sep}{encode_basestring_ascii(key)}: "
            yield from _json_text(item, inner)
            sep = ",\n" + inner
        yield f"\n{pad}}}"
        return
    else:
        text = _records_text(value, pad) if type(value) is list else None
        yield text or json.dumps(value, indent=1, default=_default).replace("\n", "\n" + pad)
        return
    sep = ",\n" + inner
    for start in range(0, len(value), _JSON_BLOCK):
        yield (sep if start else "[\n" + inner) + join(sep, value[start:start + _JSON_BLOCK])
    yield f"\n{pad}]"


def _check_outputs(args) -> None:
    """Refuse output paths that name one file, a directory or a file in a missing directory."""
    if os.path.realpath(args.out) == os.path.realpath(args.curves):  # the CSV would replace it
        raise ConfigError(f"--out and --curves name the same file {args.curves!r}")
    for path in (args.out, args.curves):
        if os.path.isdir(path):  # the commit would move it aside
            raise ConfigError(f"cannot write output file {path!r}: Is a directory")
        if not os.path.exists(os.path.dirname(os.path.abspath(path))):
            raise ConfigError(f"cannot write output file {path!r}: No such file or directory")


def _write_outputs(args, payload: dict, header: list[str], columns: list[list[str]]) -> None:
    """Write ``payload`` as JSON to ``args.out`` and the CSV of the equal-length
    text ``columns`` (one line per row) to ``args.curves``: both or neither.

    Each text goes to ``new`` in a private ``.cdfdr-*`` stage directory beside
    its target, as :func:`_json_text` yields it, so it is never held whole.
    Once both are written, each existing target is renamed into its stage as
    ``old``, and ``new`` onto the freed name.  Nothing is renamed onto an
    existing name: on ext4 that writes the new file to disk at once, and the
    next run waits to free its blocks.  Any failure renames everything back.
    Each name is absent for a moment, and nothing is flushed to disk.
    """
    outputs = [(args.out, chain(_json_text(payload), "\n")),
               (args.curves, ["\n".join([",".join(header), *map(",".join, zip(*columns)), ""])])]
    stages: list[str] = []
    undo: list[tuple[str, str]] = []
    try:
        for path, pieces in outputs:
            stages.append(tempfile.mkdtemp(prefix=".cdfdr-", dir=os.path.dirname(os.path.abspath(path))))
            with open(os.path.join(stages[-1], "new"), "w", newline="") as handle:
                handle.writelines(pieces)
        _check_outputs(args)  # again, so a directory made meanwhile is never moved aside
        for stage, (path, _) in zip(stages, outputs):
            moves = [(path, os.path.join(stage, "old"))] if os.path.lexists(path) else []
            for src, dst in moves + [(os.path.join(stage, "new"), path)]:
                os.rename(src, dst)
                undo.append((dst, src))
    except BaseException as exc:
        for src, dst in reversed(undo):
            os.rename(src, dst)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write output file {path!r}: {exc.strerror}") from exc
        raise
    finally:
        for stage in stages:
            shutil.rmtree(stage)


# ---------------------------------------------------------------------------
# Input parsing
# ---------------------------------------------------------------------------

def read_input_table(path: str, column: str) -> tuple[list[str], np.ndarray]:
    """Read the id (optional) and value columns from a headered CSV.

    Every value must parse as a finite number; p-values must lie in [0, 1].
    Violations raise :class:`InputError` citing the data row number, and a file
    that is not UTF-8 or not parseable as CSV raises one naming the file.
    """
    if column not in ("stat", "pvalue"):
        raise ConfigError(f"column must be 'stat' or 'pvalue', got {column!r}")
    try:
        # utf-8-sig drops the byte-order mark that spreadsheet exports put first.
        handle = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise InputError(f"cannot open input file {path!r}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise InputError(f"{path!r} is empty (header row required)")
            header = [h.strip() for h in header]
            if column not in header:
                raise InputError(
                    f"{path!r} has no {column!r} column (header: {header})"
                )
            return _parse_rows(path, reader, header, column)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise InputError(f"cannot read {path!r} as UTF-8 CSV: {exc}") from exc


def _parse_rows(path: str, rows, header: list[str], column: str) -> tuple[list[str], np.ndarray]:
    """Ids and values of the data ``rows`` (lists of cells) below ``header``.

    A blank row is skipped but keeps its row number; the first bad row raises.
    """
    width = len(header)
    value_idx = header.index(column)
    id_idx = header.index("id") if "id" in header else None
    check_range = column == "pvalue"
    ids: list[str] = []
    values: list[float] = []
    for row_number, row in enumerate(rows, start=1):
        # Only a row of the wrong width or with an empty value can be blank.
        if len(row) != width or not (cell := row[value_idx].strip()):
            if not any(map(str.strip, row)):
                continue
            if len(row) != width:
                raise InputError(f"row {row_number}: expected {width} fields, got {len(row)}")
            raise InputError(f"row {row_number}: missing {column} value")
        try:
            value = float(cell)
        except ValueError:
            raise InputError(f"row {row_number}: {column} value {cell!r} is not a number")
        if not math.isfinite(value):
            raise InputError(f"row {row_number}: {column} value {cell!r} is not finite")
        if check_range and not 0.0 <= value <= 1.0:
            raise InputError(f"row {row_number}: p-value {value!r} outside [0, 1]")
        ids.append(row[id_idx].strip() if id_idx is not None else str(row_number))
        values.append(value)
    if not values:
        raise InputError(f"{path!r} contains a header but no data rows")
    return ids, np.array(values)


def parse_null_spec(text: str) -> NullSpec:
    """Parse ``std-normal``, ``normal:MU,SIGMA``, or ``t:DF``."""
    if text == "std-normal":
        return NullSpec.standard_normal()
    if text.startswith("normal:"):
        parts = text[len("normal:"):].split(",")
        if len(parts) != 2:
            raise ConfigError(f"expected normal:MU,SIGMA, got {text!r}")
        try:
            mu, sigma = float(parts[0]), float(parts[1])
        except ValueError:
            raise ConfigError(f"non-numeric null parameters in {text!r}")
        return NullSpec.normal(mu, sigma)
    if text.startswith("t:"):
        try:
            df = float(text[len("t:"):])
        except ValueError:
            raise ConfigError(f"non-numeric degrees of freedom in {text!r}")
        return NullSpec.student_t(df)
    raise ConfigError(
        f"unknown null spec {text!r} (use std-normal, normal:MU,SIGMA, or t:DF)"
    )


# ---------------------------------------------------------------------------
# fdr subcommand
# ---------------------------------------------------------------------------

def _prepare_model(args) -> tuple[list[str], CdfrModel]:
    """Shared ingestion + fitting for the fdr and pi0 subcommands."""
    if args.column == "pvalue" and (args.df is not None or args.null != "std-normal"):
        raise ConfigError("--null and --df apply to --column stat only")
    if args.df is not None and args.null.startswith("t:"):
        raise ConfigError("--df converts t statistics to z; it cannot go with a t: null")
    ids, values = read_input_table(args.input, args.column)
    mode = args.transform.replace("-", "_")
    if args.column == "pvalue":
        null_spec, data = NullSpec.precomputed(), values
    else:
        null_spec = parse_null_spec(args.null)
        data = t_to_z(values, args.df) if args.df is not None else values
    model = fit_cdfdr(
        data, null_spec, mode=mode,
        m_density=args.m_density, m_mdc=args.m_mdc, grid_step=args.lambda_step,
    )
    return ids, model


def _curve_columns(model: CdfrModel) -> list[list[str]]:
    """Text of the t, u, v, d_hat, fdr curves on the 401-point evaluation grid."""
    if model.stats is not None:
        t_grid = np.linspace(float(np.min(model.stats)), float(np.max(model.stats)), 401)
        t_text = _float_text(t_grid)
    else:
        t_grid = np.linspace(0.0, 1.0, 403)[1:-1]
        t_text = [""] * t_grid.size
    grid = evaluate(model, t_grid)
    return [t_text] + [_float_text(column) for column in (grid.u, grid.v, grid.d, grid.fdr)]


def _config_echo(args, keys: list[str]) -> dict:
    return {key: getattr(args, key.replace("-", "_")) for key in keys}


def cmd_fdr(args) -> int:
    ids, model = _prepare_model(args)
    fit = model.beta_fit
    coeffs = model.cd_model.coeffs
    path = model.deviance_path
    fitted = model.fitted
    report_stats = fitted.u if model.stats is None else model.stats
    disc = discoveries(model, report_stats, args.fdr_threshold)
    hits = disc.indices
    diag_f1 = None if model.pi0 >= 1.0 else integrate_nonnull_density(model)
    report = {
        # The input's base name, so the bytes do not depend on its directory.
        "config": {"input": os.path.basename(args.input), **_config_echo(args, [
            "column", "null", "transform", "df",
            "m_density", "m_mdc", "lambda_step", "fdr_threshold",
        ])},
        "n": fit.n,
        "beta_fit": {
            "alpha": fit.alpha,
            "beta": fit.beta,
            "log_likelihood": fit.log_likelihood,
            "n": fit.n,
            "iterations": fit.iterations,
            "converged": fit.converged,
        },
        "coefficients": {
            "m": coeffs.m,
            "theta_tilde": coeffs.theta_tilde,
            "theta_hat": coeffs.theta_hat,
            "threshold": coeffs.threshold,
            "selected": coeffs.selected(),
        },
        "pi0": {
            "lambda_star": path.lambda_star,
            "pi0_hat": path.pi0_hat,
            "flat_path": path.flat,
            "n_missing": int(np.sum(path.n_lambda == 0)),
        },
        "discoveries": {
            "threshold": disc.threshold,
            "n_discoveries": disc.n_discoveries,
            "n_left": disc.n_left,
            "n_right": disc.n_right,
            "indices": disc.indices,
            "cases": [
                {"index": i, "id": ids[i], "stat": stat, "pvalue": pvalue, "fdr": case_fdr}
                for i, stat, pvalue, case_fdr in zip(
                    hits, report_stats[hits].tolist(), fitted.u[hits].tolist(),
                    fitted.fdr[hits].tolist())
            ],
        },
        "cases": {
            "id": ids,
            "pvalue": fitted.u,
            "d_hat": fitted.d,
            "fdr": fitted.fdr,
        },
        "diagnostics": {
            "floor_hits": int(np.count_nonzero(fitted.d == DEFAULT_FLOOR)),
            "integral_f1": diag_f1,
        },
    }
    _write_outputs(args, report, ["t", "u", "v", "d_hat", "fdr"], _curve_columns(model))
    return 0


def cmd_pi0(args) -> int:
    _, model = _prepare_model(args)
    path = model.deviance_path
    keep = path.n_lambda > 0
    columns = [_float_text(path.lambdas[keep]), _float_text(path.deviances[keep]),
               list(map(str, path.n_lambda[keep].tolist()))]
    _write_outputs(args, {"lambda_star": path.lambda_star, "pi0_hat": path.pi0_hat},
                   ["lambda", "D_lambda", "n_lambda"], columns)
    return 0


def cmd_simulate(args) -> int:
    config = EstimatorConfig(
        m_density=args.m_density, m_mdc=args.m_mdc, grid_step=args.lambda_step,
    )
    if args.design == "mixnorm":
        if args.mu is None:
            raise ConfigError("--design mixnorm requires --mu")
        design = MixtureNormalDesign(
            mu=args.mu, n=args.n, n_null=args.n_null,
            replicates=args.replicates, seed=args.seed,
            mu_redraw="once" if args.mu_redraw == "once" else "per_replicate",
        )
    else:
        if args.pi0 is None or args.a is None:
            raise ConfigError("--design mixunif requires --pi0 and --a")
        design = MixtureUniformDesign(
            pi0=args.pi0, a=args.a, n=args.n,
            replicates=args.replicates, seed=args.seed,
        )
    report = run_replicates(design, config)
    curves = {key: getattr(report, key) for key in ("grid", "true_fdr", "mean_fdr", "sd_fdr")}
    payload = {
        "design": _config_echo(args, [
            "design", "mu", "pi0", "a", "n", "n_null",
            "replicates", "seed", "mu_redraw",
        ]),
        "estimator": {
            "m_density": config.m_density,
            "m_mdc": config.m_mdc,
            "grid_step": config.grid_step,
        },
        **curves,
        "mise": report.mise,
        "tail_mise": report.tail_mise,
        "pi0_estimates": report.pi0_estimates,
        "n_replicates": report.n_replicates,
        "failed_replicates": report.failed_replicates,
    }
    _write_outputs(args, payload, list(curves), list(map(_float_text, curves.values())))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="CSV file with a header row")
    parser.add_argument("--column", choices=["stat", "pvalue"], required=True,
                        help="which column to analyze")
    parser.add_argument("--null", default="std-normal",
                        help="null model: std-normal | normal:MU,SIGMA | t:DF")
    parser.add_argument("--transform", choices=["pit", "two-sided"], default="pit",
                        help="statistic-to-p-value transform")
    parser.add_argument("--df", type=float, default=None,
                        help="convert input t statistics to z scale with this df first")
    parser.add_argument("--m-density", type=int, default=6, dest="m_density",
                        help="series length for the density estimate")
    parser.add_argument("--m-mdc", type=int, default=10, dest="m_mdc",
                        help="series length for the deviance scan")
    parser.add_argument("--lambda-step", type=float, default=0.01, dest="lambda_step",
                        help="grid step of the deviance scan over [1, 3.5]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdfdr",
        description="Local false discovery rate estimation via comparison density",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fdr = sub.add_parser("fdr", help="fit the model and report discoveries")
    _add_input_flags(p_fdr)
    p_fdr.add_argument("--fdr-threshold", type=float, default=0.2, dest="fdr_threshold",
                       help="discovery threshold on the estimated fdr")
    p_fdr.add_argument("--out", required=True, help="output JSON report path")
    p_fdr.add_argument("--curves", required=True, help="output curves CSV path")
    p_fdr.set_defaults(func=cmd_fdr)

    p_pi0 = sub.add_parser("pi0", help="estimate the true-null proportion only")
    _add_input_flags(p_pi0)
    p_pi0.add_argument("--out", required=True, help="output JSON path")
    p_pi0.add_argument("--curves", required=True, help="output deviance-path CSV path")
    p_pi0.set_defaults(func=cmd_pi0)

    p_sim = sub.add_parser("simulate", help="run a seeded replicate study")
    p_sim.add_argument("--design", choices=["mixnorm", "mixunif"], required=True)
    p_sim.add_argument("--mu", type=float, default=None, help="signal mean (mixnorm)")
    p_sim.add_argument("--pi0", type=float, default=None, help="null proportion (mixunif)")
    p_sim.add_argument("--a", type=float, default=None, help="signal interval length (mixunif)")
    p_sim.add_argument("--n", type=int, default=5000, help="cases per replicate")
    p_sim.add_argument("--n-null", type=int, default=4500, dest="n_null",
                       help="null cases per replicate (mixnorm)")
    p_sim.add_argument("--replicates", type=int, default=20)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--mu-redraw", choices=["once", "per-rep"], default="once",
                       dest="mu_redraw", help="draw non-null means once or per replicate")
    p_sim.add_argument("--m-density", type=int, default=6, dest="m_density")
    p_sim.add_argument("--m-mdc", type=int, default=10, dest="m_mdc")
    p_sim.add_argument("--lambda-step", type=float, default=0.01, dest="lambda_step")
    p_sim.add_argument("--out", required=True, help="output JSON report path")
    p_sim.add_argument("--curves", required=True, help="output curves CSV path")
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Print a warning as the CLI prints its errors: its message, without source location."""
    print(f"cdfdr: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            _check_outputs(args)
            return args.func(args)
        except _INPUT_ERRORS as exc:
            print(f"cdfdr: input error: {exc}", file=sys.stderr)
            return 2
        except CdfdrError as exc:
            print(f"cdfdr: numerical failure: {exc}", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
