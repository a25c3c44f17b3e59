"""Hand-written expected verdicts for every benchmark job.

Nothing here imports kfan: each value below is derived by hand from the
mathematics, so the benchmark can tell a fast wrong answer from a right one.

Derivations
-----------
Ranks of fans.  For a complete simplicial fan whose toric variety is
T-cellular, K_T is free over R(T) with one basis element per cell, and the
ordinary K-ring K(X) = K_T(X) (x)_{R(T)} Z (Merkurjev) has the same rank.
The cells are in bijection with the maximal cones, so

    rank = number of maximal cones.

  * P1: 2 cones.  P2, P(1,1,2): 3 cones.  P1xP1 and every Hirzebruch
    surface F_a = P(O + O(a)) over P1: 4 cones, whatever the twist a.
  * The smooth complete polygon with n rays has n two-dimensional cones,
    so rank n.
  * P3: the 4 three-element subsets of its 4 rays, rank 4.
  * P1xP1xP1: one cone per octant, rank 8.

Toric bundles.  A bundle with fiber fan F over a cellular base B has a
product cell decomposition (Leray-Hirsch), so

    rank = (fiber cones) x (base cones).

  * `hirzebruch_fiber_base(a)`: the line fan over P1 with the twisted line
    class, i.e. F_a again: 2 x 2 = 4 over R(T^2), for every a.
  * P1 over the trivial base with one character: 2 x 1 = 2.
  * P1 over P1xP1 (trivial line data): P1xP1xP1, 2 x 4 = 8, and the Kunneth
    map from base (x) fiber is onto, so every sampled member is hit.

Horospherical data.  The K-ring is the extended ring over the parabolic
invariants R(T)^{W_P}, which is free over the full invariants R(T)^W of rank
|W| / |W_P| (Pittie-Steinberg).  With the fan p1 (2 cones):

    rank = 2 x |W| / |W_P|.

  Weyl group orders entered by hand: A1 has |W| = 2, A2 has 6, A3 has 24.
  A parabolic set generates the Weyl group of its Dynkin subdiagram:
  {} -> 1, one node -> 2, two adjacent nodes of A3 ({0,1} or {1,2}) -> A2
  -> 6, two non-adjacent nodes of A3 ({0,2}) -> A1 x A1 -> 4.

  * sl2 demo: A1, P = {}:     2 x 2/1  = 4.
  * sl3 demo: A2, P = {0}:    2 x 6/2  = 6.
  * A3, P = {0,2}, by w2:     2 x 24/4 = 12.
  * A3, P = {1,2}, by w1:     2 x 24/6 = 8.
  * A3, P = {0,1}, by w3:     2 x 24/6 = 8.
  `flag_rank_probe` estimates |W| / |W_P| alone: A2 {} -> 6, A2 {0} -> 3,
  A3 {0,1} -> 4, A3 {0,2} -> 6.

Command line verdicts.  Every builtin fan has distinct primitive rays and
cones meeting in common faces, so `validate` says valid.  All builtins but
`quadrant` (a single cone) cover the plane or line, so `complete` is true
except there.  Every complete fan of rank <= 2 here is cellular: a generic
direction orders the cones around the circle without cycles and each cell
quotient is smooth (for P(1,1,2) the singular cone is the 0-dimensional cell,
whose quotient is a point); an incomplete fan is not cellular by definition.
The filtration basis has one element per maximal cone and generates.  The
monomial presentation of a smooth fan has one generator per ray, and its
relations vanish in the ring; P(1,1,2) is singular, so `sr` rejects it.

Membership examples (x, y the characters of the first two coordinates):
  * p1, components (x, 1): x - 1 is divisible by 1 - x, a member.
  * p1, components (0, 1): 1 is not divisible by 1 - x, not a member.
  * p2, components ((1-x)(1-y), 0, 0): the walls from cone 0 carry the
    characters x and y, and (1-x)(1-y) is divisible by both; the third wall
    sees 0 - 0.  A member.
  * p2, components (1-x, 0, 0): across the wall with character y, 1 - x is
    not divisible by 1 - y.  Not a member.

Exit codes: 0 for a finished computation, 2 for malformed input (never a
traceback), 3 for inconclusive.  A job whose entry has no "exit" key is a
library call and is compared on the listed fields only.
"""

_FAN_CONES = {"p1": 2, "p2": 3, "p1xp1": 4, "f1": 4, "p112": 3, "hirzebruch:2": 4}
_FAN_RAYS = {"p1": 2, "p2": 3, "p1xp1": 4, "f1": 4}

CLI_SMALL = {}
for _fan in ("p1", "p2", "p1xp1", "f1", "p112", "quadrant", "hirzebruch:2"):
    CLI_SMALL[f"validate {_fan}"] = {"exit": 0, "valid": True}
    CLI_SMALL[f"complete {_fan}"] = {"exit": 0, "complete": _fan != "quadrant"}
    CLI_SMALL[f"cellular {_fan}"] = {"exit": 0, "verdict": _fan != "quadrant"}
for _fan, _cones in _FAN_CONES.items():
    CLI_SMALL[f"rank {_fan}"] = {"exit": 0, "rank": _cones}
    CLI_SMALL[f"basis {_fan}"] = {"exit": 0, "built": True, "elements": _cones,
                                  "all_generated": True}
for _fan, _rays in _FAN_RAYS.items():
    CLI_SMALL[f"sr {_fan}"] = {"exit": 0, "generators": _rays,
                               "all_images_zero": True, "all_hit": True}
CLI_SMALL.update({
    "sr p112": {"exit": 2},
    "gkm-check p1 member": {"exit": 0, "member": True},
    "gkm-check p1 non-member": {"exit": 0, "member": False},
    "gkm-check p2 member": {"exit": 0, "member": True},
    "gkm-check p2 non-member": {"exit": 0, "member": False},
    "plp-check p1 member": {"exit": 0, "member": True},
    "plp-check p2 non-member": {"exit": 0, "member": False},
    "horo sl2": {"exit": 0, "ok": True, "rank": 4, "all_images_zero": True},
    "horo sl3": {"exit": 0, "ok": True, "rank": 6, "all_images_zero": True},
    "bundle p1 over trivial": {"exit": 0, "rank": 2, "all_hit": True,
                               "all_images_zero": True},
    "crosscheck 1": {"exit": 0, "ranks_match": True, "rank_direct": 4,
                     "rank_extended": 4, "all_agree": True},
    # malformed inputs: exit 2 with a message
    "complete invalid fan": {"exit": 2},
    "crosscheck -1": {"exit": 2},
    "bundle fiber rank != base char_rank": {"exit": 2},
    "validate unknown builtin": {"exit": 2},
    "validate broken json": {"exit": 2},
})

TORIC_LADDER = {f"rank F{a}": {"rank": 4} for a in range(7)}
TORIC_LADDER.update({f"rank polygon{n}": {"rank": n} for n in range(4, 13)})
TORIC_LADDER.update({
    "rank P3": {"rank": 4},
    "rank P1xP1xP1": {"rank": 8},
    "basis P3 along 2,1,4": {"elements": 4, "all_generated": True},
    "basis P3 along -2,7,4": {"elements": 4, "all_generated": True},
    "sr-probe P3": {"all_hit": True},
})

EXTENDED = {f"box-rank F{a}": {"rank": 4} for a in range(7)}
EXTENDED.update({
    "crosscheck F1": {"ranks_match": True, "rank_direct": 4, "rank_extended": 4,
                      "all_agree": True},
    "crosscheck F3": {"ranks_match": True, "rank_direct": 4, "rank_extended": 4,
                      "all_agree": True},
    "kunneth P1 over P1xP1": {"all_hit": True},
    "horo-rank sl2": {"rank": 4},
    "horo-rank sl3": {"rank": 6},
    "horo-rank A3{0,2} w2": {"rank": 12},
    "horo-rank A3{1,2} w1": {"rank": 8},
    "horo-rank A3{0,1} w3": {"rank": 8},
    "flag-probe A2{}": {"rank": 6},
    "flag-probe A2{0}": {"rank": 3},
    "flag-probe A3{0,1}": {"rank": 4},
    "flag-probe A3{0,2}": {"rank": 6},
})

REFERENCE = {"cli-small": CLI_SMALL, "toric-ladder": TORIC_LADDER,
             "extended": EXTENDED}

# Jobs the seed answers wrongly or fails on, with the ROADMAP defect they
# show.  They stay in the workloads and count in sound_share/clean_share;
# `correct` turns false only when a job outside this list goes wrong.
KNOWN_DEFECTS = {
    "complete invalid fan": "load_fan joins violation dicts: TypeError traceback",
    "crosscheck -1": "negative twist: uncaught ValueError traceback",
    "bundle fiber rank != base char_rank": "uncaught ValueError traceback",
    "rank F3": "false conclusive rank 11 (box estimates 11, 11 agree)",
    "rank polygon12": "false conclusive rank 17 (box estimates 17, 17 agree)",
    "box-rank F5": "false conclusive extended rank 3",
    "box-rank F6": "false conclusive extended rank 3",
    "crosscheck F3": "ranks_match false: the ordinary model reports 11",
    "horo-rank A3{0,1} w3": "RowLattice coefficient growth: passes the wall limit",
}
