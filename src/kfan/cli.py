"""Command-line front end.

Every subcommand prints one JSON report to standard output: keys sorted,
two-space indent, a schema version, a digest of the exact inputs, and the
seed used by any randomized probe.  The bytes are identical across runs
with the same inputs and seed; wall-clock timings go to standard error so
they never perturb the report.

Exit codes: 0 the computation finished (a false verdict is a result, not a
failure), 2 malformed input, 3 inconclusive (no certificate: no basis was
certified for the rank, a box-truncated extended rank ran out of radius
before stabilizing, or the crosscheck's two ranks disagree).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from .baserings import TrivialBase, base_from_obj
from .bundle import (
    bundle_presentation,
    extended_box_rank,
    extended_check,
    extended_from_obj,
    extended_relation_image,
    hirzebruch_crosscheck,
    kunneth_surjectivity_probe,
)
from .catalog import f1, hirzebruch, p1, p1xp1, p112, p2, quadrant
from .cellular import check_cellular
from .fan import Fan, fan_to_json, is_complete, parse_fan, validate_fan, walls
from .horo import (
    datum_from_obj,
    datum_to_obj,
    sl2_basic_datum,
    sl3_datum,
    validate_horo,
)
from .kring import (
    build_filtration_basis,
    element_from_obj,
    element_to_obj,
    gkm_check,
    ordinary_k_rank,
    plp_check,
    sr_surjectivity_probe,
    verify_generation,
)

SCHEMA = 1

_BUILTIN_FANS = {"p1": p1, "p2": p2, "p1xp1": p1xp1, "f1": f1,
                 "p112": p112, "quadrant": quadrant}


class InputError(ValueError):
    """Malformed or unreadable input; mapped to exit code 2."""


# --- input loading ------------------------------------------------------------------


def _read_source(arg: str) -> str:
    if arg == "-":
        return sys.stdin.read()
    if arg.lstrip().startswith(("{", "[")):
        return arg
    try:
        with open(arg, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {arg!r}: {exc}") from exc


def _load_json(arg: str):
    try:
        return json.loads(_read_source(arg))
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {arg!r}: {exc}") from exc


def _fan_from_value(value) -> Fan:
    """A fan given as a builtin name, a hirzebruch:a form, or a JSON object."""
    if isinstance(value, str):
        if value in _BUILTIN_FANS:
            return _BUILTIN_FANS[value]()
        if value.startswith("hirzebruch:"):
            try:
                return hirzebruch(int(value.split(":", 1)[1]))
            except ValueError as exc:
                raise InputError(f"bad hirzebruch parameter in {value!r}") from exc
        raise InputError(f"unknown builtin fan {value!r}")
    try:
        return parse_fan(value)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _violations_text(violations) -> str:
    return "; ".join(json.dumps(v, sort_keys=True) for v in violations)


def load_fan(arg: str, trust: bool = False) -> Fan:
    """Fan from a builtin name, file path, inline JSON, or standard input."""
    if arg in _BUILTIN_FANS or arg.startswith("hirzebruch:"):
        f = _fan_from_value(arg)
    else:
        f = _fan_from_value(_load_json(arg))
    if not trust:
        rep = validate_fan(f)
        if not rep.valid:
            raise InputError("invalid fan: " + _violations_text(rep.violations))
    return f


def _parse_vector(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad vector {text!r}; expected comma-separated integers") from exc


# --- report plumbing ----------------------------------------------------------------


def jsonable(x):
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _digest(payload) -> str:
    blob = json.dumps(jsonable(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _fan_summary(f: Fan) -> dict:
    return {"name": f.name or None, "rank": f.rank, "rays": len(f.rays),
            "max_cones": len(f.max_cones)}


def _human(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        lines = []
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.append(_human(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {json.dumps(jsonable(v))}")
        return "\n".join(lines)
    if isinstance(obj, list):
        return "\n".join(f"{pad}- {json.dumps(jsonable(v))}" for v in obj)
    return f"{pad}{json.dumps(jsonable(obj))}"


# --- subcommands --------------------------------------------------------------------
# Each handler returns (digest_payload, inputs_summary, result, conclusive).


def _rank_result(rep) -> dict:
    """The report of a box-stabilized RankReport."""
    return {"rank": rep.rank, "stabilized_at": rep.stabilized_at,
            "conclusive": rep.conclusive, "history": [list(h) for h in rep.history]}


def _cmd_validate(args):
    f = load_fan(args.fan, trust=True)
    rep = validate_fan(f)
    result = {"valid": rep.valid, "violations": list(rep.violations)}
    return fan_to_json(f), {"fan": _fan_summary(f)}, result, True


def _cmd_complete(args):
    f = load_fan(args.fan, trust=args.trust_fan)
    return fan_to_json(f), {"fan": _fan_summary(f)}, {"complete": is_complete(f)}, True


def _cmd_cellular(args):
    f = load_fan(args.fan, trust=args.trust_fan)
    v = _parse_vector(args.v) if args.v else None
    try:
        rep = check_cellular(f, v=v, seed=args.seed)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    result = {
        "verdict": rep.verdict,
        "v": list(rep.v),
        "order": None if rep.order is None else list(rep.order),
        "taus": [list(t.ray_indices) for t in rep.taus],
        "cell_dims": list(rep.cell_dims),
        "quotient_smooth": rep.quotient_smooth,
        "failure": rep.failure,
    }
    searched_out = (rep.failure or "").startswith("no cellular direction")
    conclusive = rep.verdict or v is not None or not searched_out
    payload = {"fan": fan_to_json(f), "v": None if v is None else list(v)}
    return payload, {"fan": _fan_summary(f)}, result, conclusive


def _check_command(args, checker):
    f = load_fan(args.fan, trust=args.trust_fan)
    obj = _load_json(args.element)
    try:
        e = element_from_obj(f, obj)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    ok, failures = checker(e)
    payload = {"fan": fan_to_json(f), "element": obj}
    return payload, {"fan": _fan_summary(f)}, {"member": ok, "failures": failures}, True


def _cmd_gkm_check(args):
    return _check_command(args, gkm_check)


def _cmd_plp_check(args):
    return _check_command(args, plp_check)


def _cmd_basis(args):
    f = load_fan(args.fan, trust=args.trust_fan)
    v = _parse_vector(args.v) if args.v else None
    radius = args.box if args.box is not None else 4
    payload = {"fan": fan_to_json(f), "v": None if v is None else list(v),
               "box": radius, "samples": args.samples}
    try:
        basis = build_filtration_basis(f, v=v, seed=args.seed, max_radius=radius)
    except ValueError as exc:
        result = {"built": False, "reason": str(exc)}
        return payload, {"fan": _fan_summary(f)}, result, False
    gen = verify_generation(f, basis, samples=args.samples, seed=args.seed)
    result = {
        "built": True,
        "v": list(basis.v),
        "order": list(basis.order),
        "radius": basis.radius,
        "elements": [element_to_obj(e) for e in basis.elements],
        "generation": gen,
    }
    return payload, {"fan": _fan_summary(f)}, result, True


def _cmd_rank(args):
    f = load_fan(args.fan, trust=args.trust_fan)
    radius = args.box if args.box is not None else 4
    rep = ordinary_k_rank(f, max_radius=radius)
    payload = {"fan": fan_to_json(f), "box": radius}
    result = {"rank": rep.rank, "conclusive": rep.conclusive, "reason": rep.reason}
    return payload, {"fan": _fan_summary(f)}, result, rep.conclusive


def _cmd_sr(args):
    f = load_fan(args.fan, trust=args.trust_fan)
    try:
        _, result = _presentation_fields(f, TrivialBase(f.rank))
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    result["surjectivity"] = sr_surjectivity_probe(f, max_degree=args.degree,
                                                   samples=args.samples, seed=args.seed)
    payload = {"fan": fan_to_json(f), "degree": args.degree, "samples": args.samples}
    return payload, {"fan": _fan_summary(f)}, result, True


def _bundle_pair(spec_obj):
    if not isinstance(spec_obj, dict) or "fiber" not in spec_obj or "base" not in spec_obj:
        raise InputError("bundle spec needs 'fiber' and 'base'")
    fiber = _fan_from_value(spec_obj["fiber"])
    rep = validate_fan(fiber)
    if not rep.valid:
        raise InputError("invalid fiber fan: " + _violations_text(rep.violations))
    try:
        base = base_from_obj(spec_obj["base"])
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if fiber.rank != base.char_rank:
        raise InputError(f"fiber fan rank {fiber.rank} does not match the base "
                         f"character rank {base.char_rank}")
    try:
        for w in walls(fiber):
            base.line_class(w.character)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return fiber, base


def _presentation_fields(fan, base):
    """(generators, report fields) of the monomial presentation over base;
    raises ValueError for a non-smooth fan."""
    gens, cert, rels = bundle_presentation(fan, base)
    images_zero = [extended_relation_image(fan, base, cert, rel).is_zero() for rel in rels]
    return gens, {
        "n_generators": len(gens),
        "relations": list(rels),
        "certificate": {f"{c},{r}": list(u) for (c, r), u in sorted(cert.items())},
        "all_images_zero": all(images_zero),
        "images_zero": images_zero,
    }


def _presentation_report(fan, base):
    try:
        gens, fields = _presentation_fields(fan, base)
        fields["generators_are_members"] = all(extended_check(g)[0] for g in gens)
    except ValueError:
        return None  # non-smooth fiber has no monomial presentation
    return fields


def _extended_report(args, fan, base, payload):
    """The element check, box rank (at the payload's box radius) and
    presentation of an extended ring, shared by the bundle and horo
    reports.  Returns (result, conclusive); a checked element is recorded
    in the payload."""
    check = None
    if args.element:
        obj = _load_json(args.element)
        try:
            e = extended_from_obj(fan, base, obj)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        ok, failures = extended_check(e)
        check = {"member": ok, "failures": failures}
        payload["element"] = obj
    rank = extended_box_rank(fan, base, max_radius=payload["box"])
    result = {
        "check": check,
        "rank": _rank_result(rank),
        "presentation": _presentation_report(fan, base),
    }
    return result, rank.conclusive


def _cmd_bundle(args):
    spec_obj = _load_json(args.spec)
    fiber, base = _bundle_pair(spec_obj)
    radius = args.box if args.box is not None else 3
    payload = {"spec": spec_obj, "box": radius, "samples": args.samples}
    inputs = {"fiber": _fan_summary(fiber), "base": base.describe()}
    result, conclusive = _extended_report(args, fiber, base, payload)
    result["kunneth"] = kunneth_surjectivity_probe(fiber, base,
                                                   samples=args.samples,
                                                   seed=args.seed)
    return payload, inputs, result, conclusive


def _cmd_horo(args):
    if args.spec == "sl2":
        datum = sl2_basic_datum()
    elif args.spec == "sl3":
        datum = sl3_datum()
    else:
        try:
            datum = datum_from_obj(_load_json(args.spec))
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    radius = args.box if args.box is not None else 3
    rep = validate_horo(datum, seed=args.seed)
    payload = {"datum": datum_to_obj(datum), "box": radius}
    inputs = {"fan": _fan_summary(datum.fan),
              "cartan": [list(r) for r in datum.cartan],
              "parabolic_set": list(datum.parabolic_set)}
    if not rep["ok"]:
        result = {"ok": False, "failures": rep["failures"]}
        return payload, inputs, result, True
    result, conclusive = _extended_report(args, datum.fan, rep["base"], payload)
    result.update(ok=True, failures=[])
    return payload, inputs, result, conclusive


def _cmd_crosscheck(args):
    if args.hirzebruch is None:
        raise InputError("crosscheck needs --hirzebruch A")
    radius = args.box if args.box is not None else 1
    result = hirzebruch_crosscheck(args.hirzebruch, samples=args.samples,
                                   seed=args.seed, radius=radius)
    payload = {"hirzebruch": args.hirzebruch, "box": radius, "samples": args.samples}
    return payload, {"hirzebruch": args.hirzebruch}, result, result["ranks_match"]


_HANDLERS = {
    "validate": _cmd_validate,
    "complete": _cmd_complete,
    "cellular": _cmd_cellular,
    "gkm-check": _cmd_gkm_check,
    "plp-check": _cmd_plp_check,
    "basis": _cmd_basis,
    "rank": _cmd_rank,
    "sr": _cmd_sr,
    "bundle": _cmd_bundle,
    "horo": _cmd_horo,
    "crosscheck": _cmd_crosscheck,
}


# --- argument parsing ---------------------------------------------------------------


def _add_common(sub, seed=True, box=False, fmt=True, trust=False):
    if seed:
        sub.add_argument("--seed", type=int, default=0,
                         help="seed for randomized probes (recorded in the report)")
    if box:
        sub.add_argument("--box", type=int, default=None, metavar="D",
                         help="box radius / degree bound for truncated computations")
    if trust:
        sub.add_argument("--trust-fan", action="store_true",
                         help="skip structural fan validation")
    if fmt:
        sub.add_argument("--format", choices=("json", "human"), default="json",
                         help="report format (default json)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kfan",
        description="Exact wall-congruence K-ring computations on fans.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="structural checks on a fan")
    p.add_argument("fan", help="builtin name, file path, inline JSON, or -")
    _add_common(p, seed=False)

    p = subs.add_parser("complete", help="does the fan cover the whole lattice")
    p.add_argument("fan")
    _add_common(p, seed=False, trust=True)

    p = subs.add_parser("cellular", help="cellularity of a complete fan")
    p.add_argument("fan")
    p.add_argument("--v", default=None, metavar="X,Y,...",
                   help="generic direction; searched when omitted")
    _add_common(p, trust=True)

    p = subs.add_parser("gkm-check", help="wall congruences for a tuple")
    p.add_argument("fan")
    p.add_argument("element", help="JSON list of polynomials, one per maximal cone")
    _add_common(p, seed=False, trust=True)

    p = subs.add_parser("plp-check", help="piecewise compatibility for a tuple")
    p.add_argument("fan")
    p.add_argument("element")
    _add_common(p, seed=False, trust=True)

    p = subs.add_parser("basis", help="certified filtration-adapted module basis "
                        "(closed form on smooth fans; --box bounds the singular search)")
    p.add_argument("fan")
    p.add_argument("--v", default=None, metavar="X,Y,...")
    p.add_argument("--samples", type=int, default=25,
                   help="random members to decompose against the basis")
    _add_common(p, box=True, trust=True)

    p = subs.add_parser("rank", help="certified free rank: the size of a filtration basis "
                        "(--box bounds the singular search)")
    p.add_argument("fan")
    _add_common(p, seed=False, box=True, trust=True)

    p = subs.add_parser("sr", help="monomial presentation of a smooth fan")
    p.add_argument("fan")
    p.add_argument("--degree", type=int, default=3,
                   help="degree bound for the surjectivity probe")
    p.add_argument("--samples", type=int, default=25)
    _add_common(p, box=False, trust=True)

    p = subs.add_parser("bundle", help="extended ring over a base")
    p.add_argument("spec", help="JSON with 'fiber' and 'base'")
    p.add_argument("--element", default=None,
                   help="tuple to membership-check in the extended ring")
    p.add_argument("--samples", type=int, default=10)
    _add_common(p, box=True)

    p = subs.add_parser("horo", help="horospherical embedding K-ring")
    p.add_argument("spec", help="'sl2', 'sl3', or a JSON datum")
    p.add_argument("--element", default=None)
    _add_common(p, box=True)

    p = subs.add_parser("crosscheck", help="two-model comparison on a Hirzebruch surface")
    p.add_argument("--hirzebruch", type=int, default=None, metavar="A")
    p.add_argument("--samples", type=int, default=100)
    _add_common(p, box=True)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        for opt in ("box", "samples", "degree", "hirzebruch"):
            value = getattr(args, opt, None)
            if value is not None and value < 0:
                raise InputError(f"--{opt} needs a nonnegative value, got {value}")
        payload, inputs, result, conclusive = _HANDLERS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    seed = getattr(args, "seed", None)
    report = {
        "command": args.command,
        "schema": SCHEMA,
        "seed": seed,
        "digest": _digest({"command": args.command, "seed": seed, "payload": payload}),
        "inputs": inputs,
        "conclusive": conclusive,
        "result": result,
    }
    elapsed = time.perf_counter() - t0
    fmt = getattr(args, "format", "json")
    if fmt == "human":
        print(_human(jsonable(report)))
    else:
        print(json.dumps(jsonable(report), sort_keys=True, indent=2))
    print(f"{args.command}: {elapsed:.3f}s", file=sys.stderr)
    return 0 if conclusive else 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
