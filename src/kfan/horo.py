"""K-rings of toroidal horospherical embeddings.

A horospherical homogeneous space fibers over a flag variety with torus
fibers; a toroidal embedding is governed by a complete fan in the fiber
torus's cocharacter lattice.  Its equivariant K-ring is the extended
wall-congruence ring of that fan over the Weyl-invariant base: entries are
parabolic invariants of the weight-lattice character ring, and each fan
character acts through the weight the embedding assigns it, which must be
fixed by the parabolic reflections.
"""

from __future__ import annotations

from dataclasses import dataclass

from .baserings import CharRemap, FlagBase, _validate_cartan
from .bundle import extended_box_rank
from .catalog import p1
from .cellular import check_cellular
from .fan import Fan, fan_to_json, json_int_rows, json_ints, parse_fan
from .intlat import RowSpan
from .kring import RankReport


@dataclass(frozen=True)
class HorosphericalDatum:
    """Combinatorial input: Cartan matrix, parabolic subset, complete fan,
    and the embedding of the fan's character lattice into the weight
    lattice (one column per fan coordinate, each fixed by the parabolic
    reflections)."""

    cartan: tuple
    parabolic_set: tuple
    fan: Fan
    char_embedding: tuple  # columns, each of length len(cartan)

    @staticmethod
    def make(cartan, parabolic_set, fan: Fan, char_embedding) -> "HorosphericalDatum":
        return HorosphericalDatum(
            cartan=_validate_cartan(cartan),
            parabolic_set=tuple(sorted(set(json_ints(tuple(parabolic_set), "parabolic_set")))),
            fan=fan,
            char_embedding=tuple(json_ints(col, "char_embedding") for col in char_embedding))


def horo_base(datum: HorosphericalDatum) -> CharRemap:
    """The coefficient ring: parabolic invariants with fan characters
    remapped through the embedding."""
    inner = FlagBase(datum.cartan, datum.parabolic_set)
    return CharRemap(inner, datum.char_embedding)


def validate_horo(datum: HorosphericalDatum, seed: int = 0) -> dict:
    """Structural checks: fixed embedding columns, injective embedding,
    complete cellular fan.  Returns a report instead of raising so partial
    inputs can be diagnosed."""
    failures = []
    base = None
    try:
        base = horo_base(datum)
    except ValueError as exc:
        failures.append(f"embedding columns: {exc}")
    if len(datum.char_embedding) != datum.fan.rank:
        failures.append("embedding needs one column per fan coordinate")
    else:
        span = RowSpan()
        for col in datum.char_embedding:
            span.insert(col)
        if span.rank != datum.fan.rank:
            failures.append("embedding is not injective")
    cellular = check_cellular(datum.fan, seed=seed)
    if not cellular.verdict:
        failures.append(f"fan is not cellular: {cellular.failure}")
    return {"ok": not failures, "failures": failures,
            "cellular": cellular, "base": base}


def k_horospherical(datum: HorosphericalDatum):
    """The (fan, base) pair whose extended wall-congruence ring is the
    equivariant K-ring; raises when the datum fails validation."""
    report = validate_horo(datum)
    if not report["ok"]:
        raise ValueError("; ".join(report["failures"]))
    return datum.fan, report["base"]


def horo_rank(datum: HorosphericalDatum, max_radius: int = 3) -> RankReport:
    fan, base = k_horospherical(datum)
    return extended_box_rank(fan, base, max_radius=max_radius)


# --- built-in demonstrations --------------------------------------------------------


def sl2_basic_datum() -> HorosphericalDatum:
    """The basic rank-one case: the line fan embedded by the fundamental
    weight, trivial parabolic.  Entries are full Laurent polynomials in one
    weight variable and the single congruence is modulo (1 - x)."""
    return HorosphericalDatum.make([[2]], [], p1(), [(1,)])


def sl3_datum() -> HorosphericalDatum:
    """A rank-two group with one parabolic reflection: entries must be
    invariant under the first simple reflection and the fan character acts
    by the second fundamental weight."""
    return HorosphericalDatum.make([[2, -1], [-1, 2]], [0], p1(), [(0, 1)])


# --- serialization -----------------------------------------------------------------


def datum_to_obj(datum: HorosphericalDatum) -> dict:
    return {
        "cartan": [list(r) for r in datum.cartan],
        "parabolic_set": list(datum.parabolic_set),
        "fan": fan_to_json(datum.fan),
        "char_embedding": [list(c) for c in datum.char_embedding],
    }


def datum_from_obj(obj) -> HorosphericalDatum:
    if not isinstance(obj, dict):
        raise ValueError("horospherical datum must be an object")
    for key in ("cartan", "parabolic_set", "fan", "char_embedding"):
        if key not in obj:
            raise ValueError(f"missing field {key!r}")
    return HorosphericalDatum.make(json_int_rows(obj["cartan"], "cartan"),
                                   json_ints(obj["parabolic_set"], "parabolic_set"),
                                   parse_fan(obj["fan"]),
                                   json_int_rows(obj["char_embedding"], "char_embedding"))
