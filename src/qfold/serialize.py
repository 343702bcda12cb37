"""JSON (de)serialization for modules, witnesses and matrices, from UTF-8 bytes.

Matrices are row-major arrays of rational strings like "3/4" (JSON
integers are read too; JSON floats, booleans and exponents are refused);
shapes are carried alongside so zero-dimensional matrices survive the
round trip.  A matrix is read straight into its (num, den) form by
`linalg.rational_rows`, the reader behind `Mat` and `Mat.rational` too,
so a module file takes the entries they take: an int entry and an ASCII
"n" or "n/d" string go through `int` and one gcd, and only any other
string reaches `Fraction`, whose errors are reported as malformed matrix
JSON.  It is written from (num, den) too, each entry as `str` prints it,
with no Fraction built either way.
Every reader checks the JSON types it is given and raises InputError on a
malformed document; a per-vertex map refuses a key that names no vertex.
"""

from __future__ import annotations

import json
from math import gcd
from typing import TYPE_CHECKING, Mapping

from .errors import InputError, ShapeMismatch, TooLarge
from .linalg import Mat, _over_q, rational_rows
from .quiver_core import DiagramAutomorphism, Quiver

if TYPE_CHECKING:
    from .module_lab import FramedModule, TransitionWitness
    from .split_quotient import SigmaData


def json_document(data: bytes, source: str):
    """The JSON value in data, read as UTF-8 (RFC 8259) whatever the locale;
    InputError names the source of bytes that are not UTF-8 or not JSON."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{source} is not UTF-8: {exc.reason} at byte {exc.start}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{source} is not valid JSON: {exc}") from None


def json_object(obj, what: str) -> dict:
    """obj itself when it is a JSON object; raises InputError otherwise."""
    if not isinstance(obj, dict):
        raise InputError(f"{what} must be a JSON object, not {type(obj).__name__}")
    return obj


def dim_entry(value, what: str) -> int:
    """A dimension given as a JSON integer or a string of one."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise InputError(f"{what} entries must be integers, got {value!r}")


MATRIX_ENTRY_CAP = 10 ** 6


def check_matrix_budget(v: Mapping[str, int], w: Mapping[str, int]) -> None:
    """Refuse dimension vectors read from outside before they size a
    matrix: a square on V_x + W_x at each vertex x bounds I J, the
    compositions of B and the twists; a negative dimension counts too."""
    estimate = sum((abs(v.get(x, 0)) + abs(w.get(x, 0))) ** 2 for x in {*v, *w})
    if estimate > MATRIX_ENTRY_CAP:
        raise TooLarge(f"the dimension vectors size {estimate} matrix entries, beyond the "
                       f"cap of {MATRIX_ENTRY_CAP}", estimate=estimate, cap=MATRIX_ENTRY_CAP)


def _flag(obj: dict, key: str, default: bool) -> bool:
    """A JSON boolean field; anything else, "false" too, is refused."""
    value = obj.get(key, default)
    if not isinstance(value, bool):
        raise InputError(f'"{key}" must be true or false, got {value!r}')
    return value


def mat_to_obj(m: Mat) -> dict:
    """{"rows", "cols", "data"}, each entry printed from (num, den) as
    `str` prints it ("n" or "n/d" in lowest terms), with no Fraction built;
    an entry over F_p prints as its `Fp` does, which no reader takes."""
    num, den = m.num, m.den
    if den == 1:
        data = [[str(x) for x in row] for row in m.data]
    else:
        data = [[_ratio(x, den) for x in row] for row in num]
    return {"rows": m.rows, "cols": m.cols, "data": data}


def _ratio(n: int, d: int) -> str:
    """n / d for a positive int d, as str(Fraction(n, d)) prints it."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def mat_from_obj(obj) -> Mat:
    """A matrix over Q from {"rows", "cols", "data"} or from bare data; the
    data must be a JSON array of JSON arrays (a string or an object there
    is refused, not iterated).  The entries are checked first, then
    "rows" and "cols", then the shape."""
    try:
        data = obj["data"] if isinstance(obj, dict) else obj
        if data.__class__ is not list or any(row.__class__ is not list for row in data):
            raise InputError("malformed matrix JSON: the data must be an array of arrays")
        num, den = rational_rows(data)
        if isinstance(obj, dict):
            rows, cols = dim_entry(obj["rows"], '"rows"'), dim_entry(obj["cols"], '"cols"')
        else:
            rows, cols = len(num), len(num[0]) if num else 0
        return _over_q(rows, cols, num, den)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed matrix JSON: {exc}") from exc


def matmap_to_obj(maps: Mapping[str, Mat]) -> dict:
    return {key: mat_to_obj(m) for key, m in sorted(maps.items())}


def matmap_from_obj(obj) -> dict[str, Mat]:
    return {key: mat_from_obj(val) for key, val in json_object(obj, "a matrix map").items()}


def _vertex_keyed(maps: Mapping[str, object], q: Quiver, what: str):
    """maps itself when every key names a vertex of q; a stray key is
    refused, not dropped."""
    stray = next((key for key in maps if key not in q.vertex_set), None)
    if stray is not None:
        raise ShapeMismatch(f"{what} names {stray!r}, which is no vertex of the quiver")
    return maps


def vertex_matmap_from_obj(q: Quiver, obj, what: str) -> dict[str, Mat]:
    """A matrix map keyed by vertices of q, such as a gauge or an embedding;
    what names it in the error for a stray key."""
    return _vertex_keyed(matmap_from_obj(obj), q, what)


def module_to_dict(m: FramedModule) -> dict:
    return {
        "v": dict(sorted(m.v.items())),
        "w": dict(sorted(m.w.items())),
        "B": matmap_to_obj(m.B),
        "I": matmap_to_obj(m.I),
        "J": matmap_to_obj(m.J),
        "signed": m.signed,
    }


def module_from_dict(q: Quiver, obj) -> FramedModule:
    from .module_lab import framed_module

    obj = json_object(obj, "a module block")
    try:
        v = {k: dim_entry(x, '"v"') for k, x in json_object(obj["v"], '"v"').items()}
        w = {k: dim_entry(x, '"w"') for k, x in json_object(obj["w"], '"w"').items()}
        check_matrix_budget(v, w)
        return framed_module(
            q, v, w,
            B=matmap_from_obj(obj.get("B", {})),
            I=matmap_from_obj(obj.get("I", {})),
            J=matmap_from_obj(obj.get("J", {})),
            signed=_flag(obj, "signed", True),
        )
    except KeyError as exc:
        raise InputError(f"module JSON missing field {exc}") from exc


def sigma_to_dict(sigma: SigmaData) -> dict:
    return matmap_to_obj(sigma.maps)


def sigma_from_dict(q: Quiver, a: DiagramAutomorphism, obj) -> SigmaData:
    """Framing twists read from outside, checked by `SigmaData.validate`:
    the one place a twist enters the program."""
    from .split_quotient import SigmaData

    sigma = SigmaData(q, a, matmap_from_obj(obj))
    sigma.validate()
    return sigma


def witness_to_dict(w: TransitionWitness) -> dict:
    out = {"g": matmap_to_obj(w.g), "summand_swap": w.summand_swap}
    if w.block_dims is not None:
        out["block_dims"] = {k: list(v) for k, v in sorted(w.block_dims.items())}
    return out


def witness_from_dict(q: Quiver, obj) -> TransitionWitness:
    """A witness whose matrices and block sizes are keyed by vertices of q."""
    from .module_lab import TransitionWitness

    obj = json_object(obj, "a witness block")
    block_dims = None
    raw = obj.get("block_dims")
    if raw is not None and json_object(raw, '"block_dims"'):
        block_dims = {}
        for k, v in raw.items():
            if not isinstance(v, list) or len(v) != 2:
                raise InputError(f'"block_dims" at {k} must be a pair of integers, got {v!r}')
            block_dims[k] = (dim_entry(v[0], '"block_dims"'), dim_entry(v[1], '"block_dims"'))
        _vertex_keyed(block_dims, q, "the witness's block_dims")
    return TransitionWitness(
        vertex_matmap_from_obj(q, obj["g"], "the witness"),
        _flag(obj, "summand_swap", False),
        block_dims,
    )
