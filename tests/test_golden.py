"""Golden reports: the exact bytes each command writes, pinned by sha256.

Every report is deterministic, so any refactor of the construction, the
oracle or the CLI must leave these digests unchanged.  The two tampered
instance files drive the raw-F verify mode; the z-free one has F_z = 0.
"""

import hashlib
import json

import pytest

from saito_forge.cli import main

WORKED = ["--d", "5", "--alpha", "0", "--beta", "0", "--f1", "1", "--f2", "x^2+x*y+y^2"]

TAMPERED = {
    "tampered-x5": "x^2*y^3 + x*y^4 + y^5 + y^4*z",
    "tampered-zfree": "x^5 + y^5",
}

ODD = ["--d", "7", "--alpha", "0", "--beta", "1", "--seed", "3"]
BETA0 = ["--d", "7", "--alpha", "1", "--beta", "0", "--seed", "2"]
EVEN = ["--d", "8", "--alpha", "0", "--beta", "1", "--seed", "1"]
# true denominators in F1 and F2 (random instances draw integer coefficients)
RATIONAL = ["--alpha", "1", "--beta", "1", "--f1=2/3*x+5/7*y",
            "--f2=-3/4*x^3+1/2*x*y^2+11/9*y^3", "--field", "q"]

# case id -> (argv without --out, sha256 of the written report)
GOLDEN = {
    "verify-explicit_odd-q": (["verify", *ODD, "--field", "q"],
        "73603a0b3a18142df61cb4c7fa49a74e1f5d44a17c92e671d52d64e5dd779083"),
    "verify-explicit_odd-fp": (["verify", *ODD, "--field", "fp:1009"],
        "1fc8b0c908b8d87a3a8e54265e902a281c0958b4f0e1110522b1adf30bb02d88"),
    "verify-explicit_beta0-q": (["verify", *BETA0, "--field", "q"],
        "5c67b8471ce0a0d28117ad43674e1c2dfef210aecd634289cb190e76a8903c95"),
    "verify-explicit_beta0-fp": (["verify", *BETA0, "--field", "fp:1009"],
        "88e9fa1e50a1833c3fb9c97f22f733d4a1a42aa2ef7a43ec7bedcb7524154ca5"),
    "verify-oracle-q": (["verify", *EVEN, "--field", "q"],
        "3a794f213885449f72790faed41035e424e00e361045e56f208986f36d676998"),
    "verify-oracle-fp": (["verify", *EVEN, "--field", "fp:1009"],
        "9269eb3a7e291689d6b49443580ff0ef5478b507d45457009bff2afe95efc06e"),
    "verify-oracle-odd-q": (["verify", *ODD, "--field", "q", "--route", "oracle"],
        "44f5f3097025eedb471c6b1a8dbdd96c04385bda7a2e7fa60b9cc19959d17767"),
    "verify-explicit_odd-rational-q": (["verify", "--d", "9", *RATIONAL],
        "60daab50d7510204549dc0afe22db9e3f50802248b87ef404b3cdd5642dc7e3e"),
    "verify-oracle-rational-q": (["verify", "--d", "10", *RATIONAL],
        "7a081ae256327f60b0a51174aa3deb94236e81fc5a2aea69199d3be8abeb8b0d"),
    "sweep-5..8-fp": (["sweep", "--d", "5..8", "--field", "fp:1009"],
        "491a2b658a9b3569cecbbe4cd5f1b8ccb9ad3596484fa984b1cc9bf6868480c6"),
    "sweep-9..12-q": (["sweep", "--d", "9..12", "--field", "q"],
        "af2ab5572ef476b20b11ce8fbe7171222ed753cd4602d3cee0a9808bcb9c1d3f"),
    "export-macaulay2": (["export", *ODD, "--field", "q", "--cas", "macaulay2"],
        "0e2838b40261b64546a0a66375fd90f63c660d33dbc60bc57b4f7f6a6868c11c"),
    "export-cocoa": (["export", *EVEN, "--field", "fp:1009", "--cas", "cocoa"],
        "3d409a7683fd647ccbbb75d1db6ec2606ecc63f727fe374f5a93dc5cab0cb498"),
    "syzygies": (["syzygies", "--d", "6", "--seed", "1", "--field", "q", "--degree", "3"],
        "fe55fe30bc724cc6b700bb3251236dacfb2110d37522d8f8fae20f2df2aad735"),
    # the freeness probe: the least AR(F) degree r and the Saito pair at (r, d - 1 - r)
    "sweep-drop-squarefree-q": (["sweep", "--d", "9..11", "--alpha", "2", "--trials", "1",
                                 "--drop-squarefree", "--field", "q"],
        "34dffdc616c9a54b4604bb1fb2fb23751fcdf074400e9047fcbe86f56dc3e82f"),
    "syzygies-fp": (["syzygies", "--d", "8", "--seed", "1", "--field", "fp:1009", "--degree", "4"],
        "151553ef63bf437704cd66efeead2ed5d3168958b9327f25c8954807fa0fb27c"),
    "hilbert": (["hilbert", *WORKED, "--degree-bound", "9"],
        "f3fb96d7272cecc2b774ef3519d8496e3a72cb0dbfaabd653d95bad92832738e"),
    "verify-tampered-x5": (["verify", "--in", "{tampered-x5}"],
        "cbf595c5e1e404edc92c67cbcb23014d9e8732c2aeb336c1f0c7e648c4f4b644"),
    "verify-tampered-zfree": (["verify", "--in", "{tampered-zfree}"],
        "9bcd3296ca830981c23f1ac8ecb9d7b834320f6962bf16e1d9fbc88686896714"),
}


def report_bytes(argv, tmp_path) -> tuple[int, bytes]:
    """Exit code and the exact bytes the command writes to --out."""
    for name, f in TAMPERED.items():
        inst = {"d": 5, "alpha": 0, "beta": 0, "field": "q",
                "F1": "1", "F2": "x^2 + x*y + y^2", "F": f}
        (tmp_path / f"{name}.json").write_text(json.dumps(inst))
    argv = [a.format(**{n: str(tmp_path / f"{n}.json") for n in TAMPERED}) for a in argv]
    out = tmp_path / "report.out"
    code = main([*argv, "--out", str(out)])
    return code, out.read_bytes()


@pytest.mark.parametrize("case", list(GOLDEN))
def test_golden_report(case, tmp_path, monkeypatch):
    monkeypatch.setenv("SAITO_FORGE_THREADS", "1")
    argv, digest = GOLDEN[case]
    code, data = report_bytes(argv, tmp_path)
    assert code == (1 if "tampered" in case else 0)
    assert hashlib.sha256(data).hexdigest() == digest
