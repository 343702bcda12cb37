"""Command-line front door.

Subcommands: split, quotient, fold, branch, dims, module, verify-all.
Output is deterministic for fixed inputs and seed: JSON is emitted with
sorted keys, tables in canonical vertex order, and all randomness flows
from the --seed flag.  The global flags --seed and --json may stand
before or after the subcommand.  Exit codes: 0 success, 1 input or usage
error, 2 verified property violation.  Under --json an error after a
successful parse is one object {"error": {"type", "message"}} on standard
output, plus the error's context fields (`qfold.errors.QfoldError`);
otherwise it is one line on standard error.  A reader that closes
standard output early ends the run with exit 1 and no traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path

from .corpus import corpus_entry
from .dim_calc import fixed_components
from .errors import InputError, PropertyViolation, QfoldError
from .lie_fold import cartan_from_quiver, classify_cartan, fold_cartan
from .module_lab import (
    apply_theta,
    build_theta_witness,
    check_relations,
    eigen_profile,
    find_transition,
    identity_sigma,
    is_stable,
    rational_eigenvalues,
    theorem5_verify,
)
from .properties import PROPERTIES
from .quiver_core import (
    DiagramAutomorphism,
    Quiver,
    quiver_from_dict,
    quiver_to_dict,
)
from .rep_branch import branch, highest_weight_from_framing, weyl_dim
from .serialize import (
    check_matrix_budget,
    dim_entry,
    json_object,
    matmap_from_obj,
    module_from_dict,
    module_to_dict,
    sigma_from_dict,
    witness_from_dict,
    witness_to_dict,
)
from .split_quotient import SplitData, fiber_count, quotient_quiver, split_framing, split_quiver

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATION = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _load_entry(args) -> tuple[Quiver, DiagramAutomorphism]:
    if args.corpus:
        entry = corpus_entry(args.corpus)
        return entry.quiver, entry.auto
    if args.file:
        q, a = quiver_from_dict(json.loads(_read_text(args.file)))
        if a is None:
            raise InputError("input JSON has no automorphism block")
        return q, a
    raise InputError("supply --corpus NAME or --file PATH")


def _read_text(path: str) -> str:
    """The text of the file at path, or of standard input for "-"."""
    return sys.stdin.read() if path == "-" else Path(path).read_text()


class _StdoutClosed(Exception):
    """The reader of standard output has closed it."""


def _print_stdout(text: str) -> None:
    """Print text and flush it.  If the reader has closed the pipe, point
    stdout at devnull, so that the interpreter's flush at exit stays quiet
    too (the SIGPIPE note in the `signal` docs), and end the command."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise _StdoutClosed from None


def _emit(args, payload, human: str) -> None:
    _print_stdout(json.dumps(payload, indent=2, sort_keys=True) if args.json else human)


def _labels_table(sd: SplitData) -> dict:
    return {
        svid: {"orbit": list(sv.orbit), "phase": f"{sv.j}/{sv.e}"}
        for svid, sv in sorted(sd.vertex_table.items())
    }


def _parse_dimvec(text: str, vertices: tuple[str, ...], name: str) -> dict[str, int]:
    """Accept a JSON object keyed by vertex id, or a comma list in
    canonical vertex order."""
    text = text.strip()
    if text.startswith("{"):
        try:
            items = json.loads(text).items()
        except json.JSONDecodeError as exc:
            raise InputError(f"{name} is not valid JSON: {exc}") from None
    else:
        parts = [p for p in text.split(",") if p.strip() != ""]
        if len(parts) != len(vertices):
            raise InputError(f"{name} needs {len(vertices)} entries, got {len(parts)}")
        items = zip(vertices, parts)
    return {str(k): dim_entry(v, name) for k, v in items}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_split(args) -> int:
    q, a = _load_entry(args)
    sd = split_quiver(q, a)
    payload = quiver_to_dict(sd.split, sd.induced)
    payload["labels"] = _labels_table(sd)
    kind = classify_cartan(cartan_from_quiver(sd.split))
    lines = [f"split quiver: {len(sd.split.vertices)} vertices, "
             f"{len(sd.split.edges)} edges, type {kind}"]
    lines.append(f"{'vertex':<12} {'orbit':<16} phase")
    for svid in sd.split.vertices:
        sv = sd.vertex_table[svid]
        lines.append(f"{svid:<12} {','.join(sv.orbit):<16} {sv.j}/{sv.e}")
    lines.append("edges: " + ", ".join(f"{e.src}--{e.tgt}" for e in sd.split.edges))
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def cmd_quotient(args) -> int:
    q, a = _load_entry(args)
    quo = quotient_quiver(q, a)
    payload = quiver_to_dict(quo)
    human = (f"quotient quiver: vertices {', '.join(quo.vertices)}; edges "
             + ", ".join(f"{e.src}--{e.tgt}" for e in quo.edges))
    _emit(args, payload, human)
    return EXIT_OK


def cmd_fold(args) -> int:
    q, a = _load_entry(args)
    base_type = classify_cartan(cartan_from_quiver(q))
    sd = split_quiver(q, a)
    split_type = classify_cartan(cartan_from_quiver(sd.split))
    fold = fold_cartan(cartan_from_quiver(q), a)
    folded_type = classify_cartan(fold.folded)
    payload = {
        "base_type": str(base_type),
        "split_type": str(split_type),
        "folded_type": str(folded_type),
        "folded_cartan": [list(r) for r in fold.folded.entries],
    }
    human = (f"base {base_type}  ->  split {split_type}  ->  folded {folded_type}\n"
             + "\n".join(" ".join(f"{x:>3}" for x in row) for row in fold.folded.entries))
    _emit(args, payload, human)
    return EXIT_OK


def cmd_branch(args) -> int:
    q, a = _load_entry(args)
    sd = split_quiver(q, a)
    split_c = cartan_from_quiver(sd.split)
    framing = _parse_dimvec(args.framing, sd.split.vertices, "--framing")
    lam = highest_weight_from_framing(framing, sd.split)
    fold = fold_cartan(split_c, sd.induced)
    rows = branch(split_c, lam, fold, dim_cap=args.dim_cap)
    total = weyl_dim(split_c, lam)
    parts = [{"weight": list(wt), "multiplicity": mult, "dim": weyl_dim(fold.folded, wt)}
             for wt, mult in rows]
    conserved = sum(p["multiplicity"] * p["dim"] for p in parts) == total
    payload = {
        "highest_weight": list(lam),
        "dim": total,
        "folded_type": str(classify_cartan(fold.folded)),
        "summands": parts,
        "dimension_conserved": conserved,
    }
    lines = [f"{'weight':<20} {'mult':>4} {'dim':>8}"]
    for p in parts:
        lines.append(f"{str(tuple(p['weight'])):<20} {p['multiplicity']:>4} {p['dim']:>8}")
    lines.append(
        f"total {total} = "
        + " + ".join(f"{p['multiplicity']}*{p['dim']}" for p in parts)
        + f"  (conserved: {conserved})")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if conserved else EXIT_VIOLATION


def cmd_dims(args) -> int:
    q, a = _load_entry(args)
    sd = split_quiver(q, a)
    v = _parse_dimvec(args.v, q.vertices, "--v")
    if args.w_split:
        w_split = _parse_dimvec(args.w_split, sd.split.vertices, "--w-split")
    elif args.w:
        w = _parse_dimvec(args.w, q.vertices, "--w")
        check_matrix_budget({}, w)
        w_split = split_framing(identity_sigma(q, a, w), sd)
    else:
        raise InputError("supply --w-split or --w")
    records = fixed_components(v, sd, w_split)
    payload = [r.to_dict() for r in records]
    lines = [f"{'v_split':<40} {'dim':>5}  empty?"]
    for r in records:
        vs = ",".join(f"{k}:{val}" for k, val in sorted(r.v_split.items()))
        lines.append(f"{vs:<40} {r.dim:>5}  {'yes' if r.empty_by_formula else 'no'}")
    lines.append(f"{len(records)} components (binomial formula: {fiber_count(v, sd)})")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def _load_module_file(path: str) -> dict:
    return json_object(json.loads(_read_text(path)), "a module file")


def cmd_module(args) -> int:
    data = _load_module_file(args.file)
    try:
        q, a = quiver_from_dict(data["quiver"])
        m = module_from_dict(q, data["module"])
    except KeyError as exc:
        raise InputError(f"module file is missing the {exc} block") from exc

    if args.action == "check":
        rep = check_relations(m)
        stable = is_stable(m) if rep.ok else None
        payload = {"relations_ok": rep.ok, "violating_vertex": rep.vertex, "stable": stable}
        human = (f"relations: {'ok' if rep.ok else 'violated at ' + str(rep.vertex)}"
                 + (f"; stable: {stable}" if stable is not None else ""))
        _emit(args, payload, human)
        return EXIT_OK if rep.ok else EXIT_VIOLATION

    if a is None:
        raise InputError("this action needs an automorphism in the quiver block")
    if "sigma" in data:
        sigma = sigma_from_dict(q, a, data["sigma"])
    else:
        sigma = identity_sigma(q, a, m.w)

    if args.action == "theta":
        out = apply_theta(m, sigma)
        payload = {"module": module_to_dict(out)}
        _emit(args, payload, json.dumps(module_to_dict(out), indent=2, sort_keys=True))
        return EXIT_OK

    if args.action == "transition":
        witness = find_transition(m, sigma)
        if witness is None:
            _emit(args, {"witness": None}, "no transition: module is not isomorphic to its transport")
            return EXIT_OK
        payload = {"witness": witness_to_dict(witness)}
        human_rows = [f"{x}: {[[str(v) for v in row] for row in witness.g[x].data]}"
                      for x in q.vertices]
        _emit(args, payload, "transition witness\n" + "\n".join(human_rows))
        return EXIT_OK

    if args.action == "witness":
        if "g" not in data:
            raise InputError("the witness action needs a \"g\" block of gauge matrices")
        g = matmap_from_obj(data["g"])
        big, witness = build_theta_witness(m, g, sigma)
        eigen_report = {}
        for x in q.vertices:
            if a.vertex_perm[x] == x:
                prof = eigen_profile(witness.g[x], sigma.orbits.e_vertex[x])
                eigen_report[x] = {
                    "roots": {str(k): v for k, v in sorted(prof["roots"].items())},
                    "other": prof["other"],
                    "rational_eigenvalues": [[str(lam), mult]
                                             for lam, mult in rational_eigenvalues(witness.g[x])],
                }
        payload = {
            "module": module_to_dict(big),
            "witness": witness_to_dict(witness),
            "fixed_vertex_eigenvalues": eigen_report,
        }
        lines = ["summand-matched witness verified"]
        for x, rep in sorted(eigen_report.items()):
            lines.append(f"vertex {x}: root masses {rep['roots']}, other {rep['other']}")
        _emit(args, payload, "\n".join(lines))
        return EXIT_OK

    if args.action == "theorem5":
        try:
            sub = module_from_dict(q, data["sub"])
            xi = matmap_from_obj(data["xi"])
            witness = witness_from_dict(data["witness"])
            witness_sub = witness_from_dict(data["witness_sub"])
        except KeyError as exc:
            raise InputError(f"theorem5 file is missing the {exc} block") from exc
        rep = theorem5_verify(xi, sub, m, sigma, witness_sub, witness)
        payload = {"ok": rep.ok, "vertex": rep.vertex, "eigenvalue": rep.eigenvalue,
                   "counterexample": list(rep.vector) if rep.vector else None}
        human = "eigenspace inclusion holds" if rep.ok else \
            f"violated at vertex {rep.vertex}, eigenvalue {rep.eigenvalue}, vector {rep.vector}"
        _emit(args, payload, human)
        return EXIT_OK if rep.ok else EXIT_VIOLATION

    raise InputError(f"unknown module action {args.action}")


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------

def cmd_verify_all(args) -> int:
    """Run every release property.  The verdicts go to stdout; each
    property's duration and size (its trial count, see `qfold.properties`)
    go to stderr, one line each, so stdout stays byte-identical per seed."""
    failures = 0
    payload = {}
    lines = []
    for name, (check, size) in PROPERTIES.items():
        start = time.perf_counter()
        try:
            bad = check(args.seed, size)
        except QfoldError as exc:
            bad = [f"error: {exc}"]
        print(f"{name:<24} {time.perf_counter() - start:8.3f} s  size {size}", file=sys.stderr)
        status = "pass" if not bad else "FAIL"
        payload[name] = {"status": status, "problems": bad}
        lines.append(f"{name:<24} {status}" + (f"  ({'; '.join(bad)})" if bad else ""))
        failures += bool(bad)
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if failures == 0 else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _add_global_flags(p: argparse.ArgumentParser, seed, json_flag) -> None:
    p.add_argument("--seed", type=int, default=seed, help="seed for all randomness")
    p.add_argument("--json", action="store_true", default=json_flag,
                   help="machine-readable output")


def build_parser() -> _Parser:
    """The parser; --seed and --json are read before or after the subcommand."""
    # the top parser holds the defaults in flag actions of its own; the
    # subparsers share actions whose default is SUPPRESS, so that a
    # subparser sets a flag only when it follows the subcommand and never
    # overwrites one given before it
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, argparse.SUPPRESS, argparse.SUPPRESS)
    parser = _Parser(prog="qfold",
                     description="exact computations for quiver diagram automorphisms")
    _add_global_flags(parser, 0, False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p):
        p.add_argument("--corpus", help="named corpus entry")
        p.add_argument("--file", help="quiver+automorphism JSON file, - for stdin")

    p = sub.add_parser("split", parents=[common], help="split-quotient quiver")
    add_source(p)
    p = sub.add_parser("quotient", parents=[common], help="orbit quotient quiver")
    add_source(p)
    p = sub.add_parser("fold", parents=[common],
                       help="classify base, split and folded Cartan data")
    add_source(p)

    p = sub.add_parser("branch", parents=[common],
                       help="decompose the highest-weight module of a framing")
    add_source(p)
    p.add_argument("--framing", required=True,
                   help="framing dims on the split quiver: JSON object or comma list")
    p.add_argument("--dim-cap", type=int, default=100_000)

    p = sub.add_parser("dims", parents=[common], help="fixed-component dimension table")
    add_source(p)
    p.add_argument("--v", required=True, help="dimension vector on the base quiver")
    p.add_argument("--w", help="framing dims on the base quiver (identity twist)")
    p.add_argument("--w-split", help="framing dims on the split quiver")

    p = sub.add_parser("module", parents=[common], help="framed module laboratory")
    p.add_argument("action", choices=["check", "theta", "transition", "witness", "theorem5"])
    p.add_argument("file", help="module JSON file, - for stdin")

    sub.add_parser("verify-all", parents=[common],
                   help="run the whole property suite over the corpus")
    return parser


COMMANDS = {
    "split": cmd_split,
    "quotient": cmd_quotient,
    "fold": cmd_fold,
    "branch": cmd_branch,
    "dims": cmd_dims,
    "module": cmd_module,
    "verify-all": cmd_verify_all,
}


@functools.lru_cache(maxsize=None)
def _parser() -> _Parser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    try:
        try:
            return COMMANDS[args.command](args)
        except PropertyViolation as exc:
            return _fail(args, exc, "property violated", EXIT_VIOLATION)
        except (QfoldError, OSError, json.JSONDecodeError) as exc:
            return _fail(args, exc, "error", EXIT_INPUT)
    except _StdoutClosed:
        return EXIT_INPUT


def _fail(args, exc: Exception, label: str, code: int) -> int:
    """Report an error: one JSON object on stdout under --json, else one
    line on stderr."""
    if args.json:
        error = {"type": type(exc).__name__, "message": str(exc), **getattr(exc, "context", {})}
        _print_stdout(json.dumps({"error": error}, sort_keys=True))
    else:
        print(f"{label}: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
