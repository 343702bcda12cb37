"""JSON (de)serialization for modules, witnesses and matrices.

Matrices are row-major arrays of rational strings like "3/4" (JSON
integers are read too; JSON floats, booleans and exponents are refused);
shapes are carried alongside so zero-dimensional matrices survive the
round trip.
Every reader checks the JSON types it is given and raises InputError on a
malformed document.
"""

from __future__ import annotations

from typing import Mapping

from .errors import InputError, TooLarge
from .linalg import Mat, qq
from .module_lab import FramedModule, SigmaData, TransitionWitness, framed_module
from .quiver_core import DiagramAutomorphism, Quiver


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
    return {
        "rows": m.rows,
        "cols": m.cols,
        "data": [[str(x) for x in row] for row in m.data],
    }


def _entry(value):
    """A matrix entry given as a JSON integer or a rational string, as an
    int when it is integral, else a Fraction (`linalg.qq`).  A JSON float or
    boolean is refused (the float 0.1 is not 1/10), and so is an exponent:
    "1e999999999" would build a billion-digit integer."""
    if isinstance(value, bool) or not isinstance(value, (int, str)) \
            or (isinstance(value, str) and "e" in value.lower()):
        raise InputError(f"matrix entries must be integers or rational strings, got {value!r}")
    return qq(value)


def mat_from_obj(obj) -> Mat:
    try:
        if isinstance(obj, dict):
            data = [[_entry(x) for x in row] for row in obj["data"]]
            return Mat(dim_entry(obj["rows"], '"rows"'), dim_entry(obj["cols"], '"cols"'), data)
        data = [[_entry(x) for x in row] for row in obj]
        rows = len(data)
        cols = len(data[0]) if rows else 0
        return Mat(rows, cols, data)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed matrix JSON: {exc}") from exc


def matmap_to_obj(maps: Mapping[str, Mat]) -> dict:
    return {key: mat_to_obj(m) for key, m in sorted(maps.items())}


def matmap_from_obj(obj) -> dict[str, Mat]:
    return {key: mat_from_obj(val) for key, val in json_object(obj, "a matrix map").items()}


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
    return SigmaData(q, a, matmap_from_obj(obj))


def witness_to_dict(w: TransitionWitness) -> dict:
    out = {"g": matmap_to_obj(w.g), "summand_swap": w.summand_swap}
    if w.block_dims is not None:
        out["block_dims"] = {k: list(v) for k, v in sorted(w.block_dims.items())}
    return out


def witness_from_dict(obj) -> TransitionWitness:
    obj = json_object(obj, "a witness block")
    block_dims = None
    if obj.get("block_dims"):
        block_dims = {}
        for k, v in json_object(obj["block_dims"], '"block_dims"').items():
            if not isinstance(v, list) or len(v) != 2:
                raise InputError(f'"block_dims" at {k} must be a pair of integers, got {v!r}')
            block_dims[k] = (dim_entry(v[0], '"block_dims"'), dim_entry(v[1], '"block_dims"'))
    return TransitionWitness(
        matmap_from_obj(obj["g"]),
        _flag(obj, "summand_swap", False),
        block_dims,
    )
