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
malformed document.  A dimension is a JSON integer or a string that spells
one.  Each per-vertex map of a module file (the twist sigma, the gauge g,
the embedding xi, a witness's g) is read by `vertex_map_from_obj`, which
refuses a key that names no vertex, a missing vertex and a misshapen block,
naming the map; `SigmaData.validate` then checks a twist's composites.
`check_transport`, `vertex_map_from_obj` and `witness_from_dict` check what
a module file pairs with its module, once, and `module_lab` takes it as
read.
"""

from __future__ import annotations

import json
from math import gcd
from typing import TYPE_CHECKING, Mapping

from .errors import InputError, NotOrbitConstant, ShapeMismatch, TooLarge
from .linalg import Mat, _over_q, rational_rows
from .quiver_core import DiagramAutomorphism, Quiver, orbit_data
from .split_quotient import SigmaData, is_orbit_constant

if TYPE_CHECKING:
    from .module_lab import FramedModule, TransitionWitness


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
    """A dimension given as a JSON integer or a string of one: an optional
    "-" and ASCII digits, within surrounding whitespace."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and value.isascii() and value.strip().removeprefix("-").isdigit():
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


def _flag(obj: dict, key: str, default: bool, name: str = "") -> bool:
    """A JSON boolean field, named in a refusal as name, or else as key;
    anything else, "false" too, is refused."""
    value = obj.get(key, default)
    if not isinstance(value, bool):
        raise InputError(f'"{name or key}" must be true or false, got {value!r}')
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


def vertex_map_from_obj(q: Quiver, obj, name: str, rows: Mapping[str, int],
                        cols: Mapping[str, int]) -> dict[str, Mat]:
    """The per-vertex map name of a module file, such as a gauge, an
    embedding or a witness: a rows_x x cols_x matrix at every vertex x of q
    and no other key.  Its entries are read first; every refusal names it."""
    maps = {key: mat_from_obj(val) for key, val in json_object(obj, name).items()}
    stray = next((key for key in maps if key not in q.vertex_set), None)
    if stray is not None:
        raise ShapeMismatch(f"{name} names {stray!r}, which is no vertex of the quiver")
    for x in q.vertices:
        if x not in maps:
            raise ShapeMismatch(f"{name} has no matrix at {x}")
        r, c = rows.get(x, 0), cols.get(x, 0)
        if (maps[x].rows, maps[x].cols) != (r, c):
            raise ShapeMismatch(f"{name} at {x} must be {r}x{c}")
    return maps


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


def sigma_from_dict(q: Quiver, a: DiagramAutomorphism, obj, w: Mapping[str, int]) -> SigmaData:
    """Framing twists read from outside for a framing w constant on the
    orbits of a: a w_x x w_x matrix sigma_x at every vertex x, read by
    `vertex_map_from_obj`, whose composites `SigmaData.validate` checks.
    It is the one place a twist enters the program."""
    sigma = SigmaData(q, a, vertex_map_from_obj(q, obj, "sigma", w, w))
    sigma.validate()
    return sigma


def check_transport(m: FramedModule, a: DiagramAutomorphism,
                    ambient: FramedModule | None = None) -> None:
    """Refuse a module that theta cannot transport along a: v or w not
    constant on orbits.  A submodule read beside its ambient module must
    first share its framing and its "signed"."""
    if ambient is not None:
        if any(m.w.get(x, 0) != ambient.w.get(x, 0) for x in m.quiver.vertices):
            raise ShapeMismatch("embeddings require a shared framing")
        if m.signed != ambient.signed:
            raise InputError('sub and module must agree on "signed"')
    od = orbit_data(m.quiver, a)
    if not is_orbit_constant(m.v, od) or not is_orbit_constant(m.w, od):
        raise NotOrbitConstant("module dimensions must be constant on orbits")


def witness_to_dict(w: TransitionWitness) -> dict:
    return {"g": matmap_to_obj(w.g), "summand_swap": w.summand_swap}


def witness_from_dict(q: Quiver, obj, dims: Mapping[str, int], name: str) -> TransitionWitness:
    """The witness block name of a module file, for a module of dimension
    dims: its map g, read as name.g, and its summand swap, read as
    name.summand_swap, which exchanges two blocks of dims_x / 2 rows at
    each vertex x, so dims_x must be even."""
    from .module_lab import TransitionWitness

    obj = json_object(obj, name)
    if "g" not in obj:
        raise InputError(f"{name} is missing the 'g' block")
    g = vertex_map_from_obj(q, obj["g"], f"{name}.g", dims, dims)
    swap = _flag(obj, "summand_swap", False, f"{name}.summand_swap")
    if swap:
        for x in q.vertices:
            if dims.get(x, 0) % 2:
                raise ShapeMismatch(f"the summand swap of {name} at {x} needs an even "
                                    f"dimension, not {dims[x]}")
    return TransitionWitness(g, swap)
