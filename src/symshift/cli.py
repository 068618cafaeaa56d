"""Command-line interface: spec ingestion, dispatch, JSON/CSV emission.

Exit codes: 0 success (or passing checks), 1 check failure or library error,
2 usage error.  Primary results go to standard output as JSON; files are
written only where flags ask for them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from dataclasses import asdict

import click

from . import extender as E
from . import grid2d as G
from . import mme as M
from . import subshifts as S
from . import verify as V
from . import words as W
from .errors import SpecFormatError, SymshiftError


def _emit(payload: dict) -> None:
    click.echo(json.dumps(payload, indent=2, sort_keys=True))


def _library_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except SymshiftError as exc:
            _emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
            sys.exit(1)

    return wrapper


def _read_json(path: str, what: str):
    """Parse a JSON file; ``what`` names it in the error message."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecFormatError(f"cannot read {what}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"{what} is not valid JSON: {exc}") from exc


def load_spec(path: str):
    """Load and validate a subshift or grid spec from a JSON file."""
    doc = _read_json(path, "spec file")
    if isinstance(doc, dict) and doc.get("type") == "grid2d":
        return G.grid_spec_from_dict(doc)
    return S.spec_from_dict(doc)


def _load_1d_spec(path: str):
    spec = load_spec(path)
    if isinstance(spec, G.Grid2dSpec):
        raise SpecFormatError("this command needs a one-dimensional spec")
    return spec


def _load_pattern(path: str) -> G.Pattern2D:
    return G.pattern_from_dict(_read_json(path, "pattern file"))


@click.group()
def main():
    """Symbolic-dynamics toolkit: languages, entropy, extender sets, MMEs."""


@main.command()
@click.option("--spec", "spec_path", required=True, type=click.Path())
@_library_errors
def entropy(spec_path):
    """Topological entropy and growth rate of a subshift."""
    spec = _load_1d_spec(spec_path)
    h = S.entropy(spec)
    _emit({"h": h, "lambda": S.perron_eigenvalue(spec)})


@main.command()
@click.option("--spec", "spec_path", required=True, type=click.Path())
@click.option("-n", "length", required=True, type=int)
@_library_errors
def count(spec_path, length):
    """Exact number of length-n words in the language."""
    spec = _load_1d_spec(spec_path)
    _emit({"n": length, "count": S.count_words(spec, length)})


@main.command()
@click.option("--spec", "spec_path", required=True, type=click.Path())
@click.option("-n", "length", required=True, type=int)
@_library_errors
def enumerate(spec_path, length):
    """All length-n words in canonical order."""
    spec = _load_1d_spec(spec_path)
    words = S.enumerate_words(spec, length)
    _emit({"n": length, "words": [W.format_word(w) for w in words]})


@main.command()
@click.option("--spec", "spec_path", required=True, type=click.Path())
@click.argument("word")
@_library_errors
def member(spec_path, word):
    """Whether a word lies in the language."""
    spec = _load_1d_spec(spec_path)
    parsed = W.parse_word(word, spec.alphabet)
    _emit({"word": word, "member": S.member(spec, parsed)})


@main.group()
def extender():
    """Extender-set operations."""


@extender.command()
@click.option("--spec", "spec_path", required=True, type=click.Path())
@click.argument("v")
@click.argument("w")
@_library_errors
def cmp(spec_path, v, w):
    """Compare the extender sets of two words."""
    spec = _load_1d_spec(spec_path)
    pv = W.parse_word(v, spec.alphabet)
    pw = W.parse_word(w, spec.alphabet)
    _emit(
        {
            "relation": E.extender_compare(spec, pv, pw),
            "v": asdict(E.extender_descriptor(spec, pv)),
            "w": asdict(E.extender_descriptor(spec, pw)),
        }
    )


@main.command()
@click.option("--spec", "spec_path", required=True, type=click.Path())
@click.argument("word")
@_library_errors
def mme(spec_path, word):
    """Measure of the word's cylinder under the measure of maximal entropy."""
    spec = _load_1d_spec(spec_path)
    parsed = W.parse_word(word, spec.alphabet)
    if isinstance(spec, S.SGapShift):
        value, cert = M.sgap_mu(spec.gaps, parsed)
        _emit({"word": word, "mu": value, "certificate": asdict(cert)})
    else:
        model = M.parry(spec)
        _emit({"word": word, "mu": M.mu_parry(model, parsed)})


@main.command()
@click.argument("u")
@click.argument("v")
@click.argument("w")
@click.option("-p", "--position", "positions", multiple=True, type=int, required=True)
@_library_errors
def replace(u, v, w, positions):
    """Sequentially replace v by w in u at the given positions."""
    result = W.replace_seq(u, v, w, list(positions))
    _emit({"result": W.format_word(result), "positions": sorted(positions)})


@main.command()
@click.argument("v")
@click.argument("w")
@click.option("--bounded", "bounded", type=int, default=None,
              help="also sweep every binary word up to this length as an oracle")
@_library_errors
def respects(v, w, bounded):
    """Decide whether replacing v by w never disturbs other occurrences."""
    ok, witness = W.respects_transition_exact(v, w)
    payload = {"v": v, "w": w, "respects": ok}
    if witness is not None:
        payload["witness"] = asdict(witness)
    if bounded is not None:
        ok_b, _ = W.respects_transition_bounded(v, w, bounded)
        payload["bounded"] = ok_b
        payload["agrees"] = ok == ok_b
    _emit(payload)


@main.group()
def verify():
    """Theorem verification suite."""


@verify.command()
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
@click.option("--csv", "csv_dir", type=click.Path(file_okay=False), default=None)
@_library_errors
def run(config_path, out_path, csv_dir):
    """Run every check and write the verification report."""
    # a bad output path is a usage error, found before the suite runs
    if out_path is not None:
        parent = os.path.dirname(out_path) or "."
        if not os.path.isdir(parent):
            raise click.BadParameter(f"{parent!r} is not an existing directory", param_hint="'--out'")
    overrides = None if config_path is None else _read_json(config_path, "config")
    report = V.run_all(overrides)
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(report.to_json())
    if csv_dir is not None:
        V.write_csv(report, csv_dir)
    summary = {
        "passed": report.passed,
        "checks": {
            status: sum(1 for r in report.records if r.status == status)
            for status in ("pass", "fail", "skipped", "error")
        },
    }
    if out_path is not None:
        summary["out"] = out_path
    _emit(summary)
    if not report.passed:
        sys.exit(1)


@main.group()
def grid2d():
    """Two-dimensional strip checks."""


@grid2d.command("check-gtheorem")
@click.option("--spec", "spec_path", required=True, type=click.Path())
@click.option("--v", "v_path", required=True, type=click.Path())
@click.option("--w", "w_path", required=True, type=click.Path())
@click.option("--widths", default="4,6,8", show_default=True)
@click.option("--tol", default=1e-12, show_default=True, type=float)
@_library_errors
def check_gtheorem(spec_path, v_path, w_path, widths, tol):
    """Same-shape measure inequality on strips of the given widths."""
    spec = load_spec(spec_path)
    if not isinstance(spec, G.Grid2dSpec):
        raise SpecFormatError("check-gtheorem needs a grid2d spec")
    try:
        width_list = [int(x) for x in widths.split(",") if x]
    except ValueError as exc:
        raise SpecFormatError(f"bad --widths value {widths!r}") from exc
    record = G.check_gtheorem(spec, _load_pattern(v_path), _load_pattern(w_path), width_list, tol)
    _emit(record)
    if record["status"] == "fail":
        sys.exit(1)


if __name__ == "__main__":
    main()
