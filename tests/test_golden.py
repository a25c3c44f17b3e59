"""Frozen CLI reports: the sha256 of each invocation's standard output.

A refactor that leaves behaviour unchanged leaves every digest unchanged.
The invocations run in-process through `kfan.cli.run`.  When a report is
meant to change, print the new digests with

    PYTHONPATH=src python tests/test_golden.py

and say in the change log which reports changed and why.
"""

import contextlib
import hashlib
import io
import json

import pytest

from kfan.cli import run

A3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
P1_FAN = {"rank": 1, "rays": [[1], [-1]], "max_cones": [[0], [1]]}
A3_02_W2 = json.dumps({"cartan": A3, "parabolic_set": [0, 2], "fan": P1_FAN,
                       "char_embedding": [[0, 1, 0]]})
P3_FAN = json.dumps({"rank": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
                     "max_cones": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]], "name": "P3"})
BAD_DATUM = json.dumps({"cartan": [[2]], "parabolic_set": [], "fan": P1_FAN,
                        "char_embedding": [[0]]})

P1_MEMBER = '[[{"exp": [1], "coef": 1}], [{"exp": [0], "coef": 1}]]'
P2_NON_MEMBER = '[[{"exp": [0, 0], "coef": 1}, {"exp": [1, 0], "coef": -1}], [], []]'
P1_TUPLE_01 = '[[], [{"exp": [0], "coef": 1}]]'
POINT_ELEMENT = "[1, 3]"
POLY_ELEMENT = '[[{"exp": [0], "coef": 1}], [{"exp": [1], "coef": 1}]]'
TORIC_ELEMENT = json.dumps([[[{"exp": [0, 0], "coef": 1}], [{"exp": [0, 0], "coef": 1}]],
                            [[{"exp": [0, 1], "coef": 1}], [{"exp": [1, 1], "coef": 1}]]])
REMAP_ELEMENT = '[[{"exp": [0, 0], "coef": 1}], [{"exp": [0, 1], "coef": 1}]]'

BASES = {
    "point": {"kind": "point", "char_rank": 1},
    "trivial": {"kind": "trivial", "char_rank": 1},
    "toric": {"kind": "toric", "fan": P1_FAN, "coeff_rank": 2,
              "line_data": [[[0, 1], [1, 1]]]},
    "flag": {"kind": "flag", "cartan": [[2]], "parabolic_set": []},
    "remap": {"kind": "remap", "embedding": [[0, 1]],
              "inner": {"kind": "flag", "cartan": [[2, -1], [-1, 2]],
                        "parabolic_set": [0]}},
}
ELEMENTS = {"point": POINT_ELEMENT, "trivial": POLY_ELEMENT, "toric": TORIC_ELEMENT,
            "flag": POLY_ELEMENT, "remap": REMAP_ELEMENT}


def _bundle(kind: str) -> list:
    spec = json.dumps({"fiber": "p1", "base": BASES[kind]})
    return ["bundle", spec, "--box", "2", "--samples", "5"]


INVOCATIONS = {
    "rank p1": ["rank", "p1"],
    "rank p2": ["rank", "p2"],
    "rank f1": ["rank", "f1"],
    "rank hirzebruch:2": ["rank", "hirzebruch:2"],
    "rank p1xp1 human": ["rank", "p1xp1", "--format", "human"],
    "basis p1": ["basis", "p1"],
    "basis p2 seed 3": ["basis", "p2", "--seed", "3"],
    "basis f1": ["basis", "f1", "--samples", "10"],
    "basis p112": ["basis", "p112"],
    "basis p112 v": ["basis", "p112", "--v", "2,1"],
    "sr p2": ["sr", "p2", "--samples", "10"],
    "sr f1 seed 7": ["sr", "f1", "--seed", "7", "--samples", "10"],
    "sr p1xp1": ["sr", "p1xp1", "--degree", "2", "--samples", "10"],
    "sr p1": ["sr", "p1"],
    "sr hirzebruch:3": ["sr", "hirzebruch:3"],
    "sr P3": ["sr", P3_FAN, "--degree", "2", "--samples", "10"],
    "gkm-check p1 member": ["gkm-check", "p1", P1_MEMBER],
    "gkm-check p1 non-member": ["gkm-check", "p1", P1_TUPLE_01],
    "gkm-check p2 non-member": ["gkm-check", "p2", P2_NON_MEMBER],
    "cellular p112 v": ["cellular", "p112", "--v", "2,1"],
    "cellular f1": ["cellular", "f1"],
    "cellular hirzebruch:2": ["cellular", "hirzebruch:2", "--seed", "4"],
    "crosscheck 1": ["crosscheck", "--hirzebruch", "1", "--samples", "20", "--seed", "5"],
    "horo sl2": ["horo", "sl2"],
    "horo sl2 element": ["horo", "sl2", "--element", POLY_ELEMENT],
    "horo sl3": ["horo", "sl3"],
    "horo sl3 human": ["horo", "sl3", "--format", "human"],
    "horo A3{0,2} w2": ["horo", A3_02_W2, "--box", "2"],
    "horo invalid datum": ["horo", BAD_DATUM],
}
for _kind in BASES:
    INVOCATIONS[f"bundle {_kind}"] = _bundle(_kind)
    INVOCATIONS[f"bundle {_kind} element"] = _bundle(_kind) + ["--element", ELEMENTS[_kind]]

GOLDEN = {
    'rank p1': "570b142ae53596fc8c809329cc068c1f65780721a8febc32423a40015e896189",
    'rank p2': "4a82d337c022dc4942f527912cf52d5730dc8171ffa7c896a799c0a8f03c2f32",
    'rank f1': "390acaf6e9b4b8b8baf657d27b0d9d36283bd0ef797e89d9655730a70e4e0442",
    'rank hirzebruch:2': "536a4c993d7b329afd54e69771f6078eb61ede30a9e78173ef25e3b7e8b19a03",
    'rank p1xp1 human': "74a6a44997202fa22aff4ed7cbfa9fcea6d141a3eb9f4b56d9ff7cc143234103",
    'basis p1': "9cfba107b052bd4f828bcf6347f70d0b1a210d646c608faf94faaa47aa184b43",
    'basis p2 seed 3': "3ea16b18b9c18de59b2a2e55d1e0c96c6d9a1f1dbcdade95afc6fbf436377611",
    'basis f1': "f77f1186afe43e79102bd157212f5fdf84ae9438fc361311f05edcf25d544a10",
    'basis p112': "c1ba72892f1b9607b21a23dbb7493b24b530c9a8d38ec2ea59e57bb49fd08f5b",
    'basis p112 v': "a31aea56cd0375b811559395561ff17d0c66dda7a15317de95c4c8f4f431d3e8",
    'sr p2': "7183ea165f344391d6402a92c2c74fcc5e9e3ffc5594b027d2b1a08d6f3120ca",
    'sr f1 seed 7': "aa47d3a291786d3d66b8a65b7f6b8b3ec25cac845e1c0cd7499c31c2f76de756",
    'sr p1xp1': "5177a5f000514f8bea5e5ea7778a9659528f5ac54e6a3bb1ccd6decee6b15900",
    'sr p1': "dc0d0c58e52bf214c703d92d206decef6f1e1e7e58b8f182b4f846a77649de92",
    'sr hirzebruch:3': "4fbd212786624562c5cb5e59acb355c5db677e8e83517ff2ad49459fb8970340",
    'sr P3': "fc2c6a30f7cabf405d29d856293e0b8262393f3c3858e3e6176f282ff1bb6579",
    'gkm-check p1 member': "5cedac5abd8f48d68be1247c111d7a596debb58d9884dc0ccd98db46fba9abb4",
    'gkm-check p1 non-member': "dadcfba9b5371983c979e76c204f229ecf3d3fc60e1a97f54a0147f0ea7a0dbb",
    'gkm-check p2 non-member': "bdea907cd22b112fadbc416473ca2495dce4488b9d8ce15646d792f8c520f907",
    'cellular p112 v': "1b137e46a445671a81c12568a50c973e233fc2d06bbb5242eae8b31ebc2885ba",
    'cellular f1': "82464b11c1a415ee45ff52586521876ab7dfddf88893de5abc8ee1a9d0d88642",
    'cellular hirzebruch:2': "db9e1b85ce8ec11023a29d7d809914604efb7c6786110bfc8aee1e46d7ad6ca5",
    'crosscheck 1': "52462079dbdb5d6d18133073d360e944992a01ed55de5900e2344ce5f8c22d93",
    'horo sl2': "7ac5f2198a803015682ddfda956a54728c57db7b0ed3f524939aee8c742725cd",
    'horo sl2 element': "a4666968f504a147bb6422adeca0209ba319aedc81750905605ee57c721b3e9d",
    'horo sl3': "60fd92a74171b62ab2542a8d639595602c2eea4f1b037507e9a7790d09688a72",
    'horo sl3 human': "322e34ec2925d4f2431e86e1e31e51a71d2a5a77475307fcca3616a5db43dfe8",
    'horo A3{0,2} w2': "9f367cfb5b8d67e21d5d9a8e1c05c08a914be356a955a314012af1d9588b0a07",
    'horo invalid datum': "bb76058c4ca7ed07d9b7390956f49c327242511807f29e16a9e852e4251e6eb0",
    'bundle point': "f539a1205c557c4e3f308f0d03cbad995a25c85f925fc96e336e0af0601f9a02",
    'bundle point element': "173fd300449559c1dda6f810e0511f7c7895506876786c6d7891c328cf4190bb",
    'bundle trivial': "c65b291b2a38ed58d0e829a6884eacca4c94acffe087534730c9bfad08e96f84",
    'bundle trivial element': "526a06629a3688187ad761e5467ff98fa7c56e353507559f2b623f4efce2aa34",
    'bundle toric': "1c34dbf07f087cb0b53cdba91ca1f97e5f55d800f970e25ff6f45a0211366924",
    'bundle toric element': "5a3b9705a11288c973410857d3beb91ef1e63511d1fb995278adcd8296f98422",
    'bundle flag': "f3dad211908ba506ada9864efba4fb8fb3392ca635da7a67f0eff0024d3adf1e",
    'bundle flag element': "9beed51f920eb413a0d78401e6acf4369100474c265c1d5f28b60663670628fd",
    'bundle remap': "7590503b90a4c5500954efda8ecf5cca500ce5f820b2fc5ebf59707ca42b2f06",
    'bundle remap element': "6f7831a0a6a5f2ec2a13c45c5ce989f2f1fd55dad481d87dd5e8d13e99839ddd",
}


def _stdout_digest(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        run(argv)
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def test_corpus_is_frozen():
    assert sorted(GOLDEN) == sorted(INVOCATIONS)


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_golden_report(name):
    assert _stdout_digest(INVOCATIONS[name]) == GOLDEN[name]


if __name__ == "__main__":
    for _name in INVOCATIONS:
        print(f"    {_name!r}: \"{_stdout_digest(INVOCATIONS[_name])}\",")
