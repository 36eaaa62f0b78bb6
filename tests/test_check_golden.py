"""Golden digests of ``check`` and ``verify-fixtures`` runs, one per condition and input.

Each digest is the SHA-256 of a run's exit code, its stderr and its JSON
report, recorded before the ten condition runners moved from the command
line front end into one table in ``llnlab.conditions`` (numpy 2.4.6, scipy
1.17.1).  Any change to an outcome, an expectation, the evidence or the
progress lines shows up as a different digest.  The inputs are the four
fixtures and one sequence spec of mixed +-1, two-point and Pareto cells
under explicit weights.  Each fixture is also checked through a spec file
that names it, against the same digest: both routes load one problem.
"""

import hashlib
import json
import random

import pytest

from llnlab import conditions
from llnlab.cli import main as cli_main

CONDITIONS = ("cesaro-domination", "weighted-domination", "chandra-ghosal", "series",
              "b-regularity-wlln", "b-regularity-l2", "kG", "kG-hat", "ui",
              "bounded-moment")
SIZE = ["--n-sup", "200", "--n", "1000"]


def mixed_spec(seed: int = 11, n_rows: int = 12) -> dict:
    """A sequence of seeded +-1, two-point and Pareto cells with explicit weights."""
    rng = random.Random(seed)
    laws = [{"kind": "symmetric-pm1"},
            {"kind": "symmetric-two-point", "magnitude": 2.5, "prob": 0.4},
            {"kind": "pareto", "alpha": 3.0, "cutoff": 1.0}]
    column = [rng.choice(laws) for _ in range(n_rows)]
    cells = [{"n": n, "i": i, "dist": column[i - 1]}
             for n in range(1, n_rows + 1) for i in range(1, n + 1)]
    weights = [{"n": n, "i": i, "a": round(rng.uniform(0.5, 1.5) / n, 6)}
               for n in range(1, n_rows + 1) for i in range(1, n + 1)]
    return {"label": "mixed", "rows": {"k": "n"}, "p": 1.0, "sequence": True,
            "cells": cells, "weights": {"kind": "explicit", "values": weights}}


CHECK_DIGESTS = {
    ("example-2.1", "cesaro-domination"):
        "eef0b21ad553b8f6259d8dd7c9aeea9ccdce68d316989421194ce1a2c611a14a",
    ("example-2.1", "weighted-domination"):
        "633b796d8048badfb71cceb77699aa12caaf2ae6d65f99e1e6b2599005a3bfc1",
    # re-recorded when the closed Cesaro sup became a step source summed piece by
    # piece: blocks 8 and 9, which quad read without breakpoints, moved by up to
    # 1.5e-8 relative, the rest by rounding; same outcome and rule
    ("example-2.1", "chandra-ghosal"):
        "518abb9deef34afb57af510c982c7eb0cae377fc9668b0ac2fc7e17c8d955cae",
    ("example-2.1", "series"):
        "8c72314a1a2fbef39b348b1ffc0a20f80e8b2758a4231e53bd5c08188c1c2afc",
    ("example-2.1", "b-regularity-wlln"):
        "dc5d891b55b1ff6a53cd1f22d9031209a3d17337cfbcd9aba644fced996791a2",
    ("example-2.1", "b-regularity-l2"):
        "89db03f30c16cdcb0f2b573a6fdf795908407ca70d30c0ff31cceb649b3c3d2a",
    ("example-2.1", "kG"):
        "69dd060ca5c71fbcee6652714d4e2a99aac419b82336ea01e76924f635ce07d0",
    ("example-2.1", "kG-hat"):
        "100040922b9930ae11dc1a209315deb41e576a5b46f952fb36d7ac85f8402538",
    ("example-2.1", "ui"):
        "8ac341a3083f67903ffab74a8b5def47486dda7a72ebfa4d1e1177f49db80631",
    # re-recorded when uniform weights began to take the Cesaro row average
    # (sum of count * value, divided by k_n): sup 54.632084069259 became
    # 54.63208406925901 at the same row, with the same outcome
    ("example-2.1", "bounded-moment"):
        "c51c0cbf1b36a4131b6c1617dabd62c1ddd88091024a971c062cf2b101386d2d",
    ("example-4.1", "cesaro-domination"):
        "f3fabe146e049a1ad176bc7a689e0232f208dc6c74d5b51b07e6a10762e4f228",
    ("example-4.1", "weighted-domination"):
        "05e5561f6efad62cfe07a38f69cb7867bcc7b27c59f7d9173c144f0d9ee767a1",
    # re-recorded when the scanned step envelope began to be summed piece by
    # piece: the blocks are exact where quad over the knotless sup was not
    ("example-4.1", "chandra-ghosal"):
        "17e66140be5b3f9b8aa14b5b8b7ff5cd77ef248afa744f29401d336c40f78fc4",
    ("example-4.1", "series"):
        "c5562106f78ca0e12b8522bedd6aa7d6bfecc51026a77b084831bbc8438d6fc5",
    ("example-4.1", "b-regularity-wlln"):
        "9759572ee758152426cb30ceb8cc36d7cfc549f28c8d4735a1fceba7e47e39d9",
    ("example-4.1", "b-regularity-l2"):
        "44cf68d86b232327cce78ac33e822f935494cae7455febbb6a26f376e7559759",
    ("example-4.1", "kG"):
        "4972f8eaeadc5d1e42ebd1c16c619350b019466a5de70b55cfc60b2f5660500d",
    ("example-4.1", "kG-hat"):
        "5a8c5b7fd1f0e7c1716181a4c69dbe8cd81af80fb504453c757b564335bab0d9",
    ("example-4.1", "ui"):
        "75ee0765dc887395d14b1f01cdd6644f784294503bfcdba8f061a0155ef49b84",
    ("example-4.1", "bounded-moment"):
        "067f38b3e3dbc84fe283f7138c3bca89a6c619faab361dd4050aaa3d0c2bbe46",
    ("wlln-counterexample", "cesaro-domination"):
        "1345160d76e98f09282d07658d7d1c68571ee1cdcbc20dff341f5b015a02bb9f",
    ("wlln-counterexample", "weighted-domination"):
        "ba059f0dc6685cae5ff03923fc9ef817c9b8e29d440b25e1200ff1c88af7d28c",
    ("wlln-counterexample", "chandra-ghosal"):
        "45166910cd3c7aea542fdc706c7bfd755b791887d9b20ed62ac1a909b33c6a9b",
    ("wlln-counterexample", "series"):
        "8c72314a1a2fbef39b348b1ffc0a20f80e8b2758a4231e53bd5c08188c1c2afc",
    ("wlln-counterexample", "b-regularity-wlln"):
        "3223d536f1521296693e4b849c298c4f1419c00079d7b89eacb773b6e15fa829",
    ("wlln-counterexample", "b-regularity-l2"):
        "457d39c20257508191b1564621dd29c2c06c17343a25da48d9f760d820a20157",
    ("wlln-counterexample", "kG"):
        "94b54fbd75ee25b9105eb4a914a7f12944245fe0c1460bea12fc40bf5148c01a",
    ("wlln-counterexample", "kG-hat"):
        "c9541c0df98fee2cdfe4083b97a8f5bc745437bbc92080ec15d5fb5ec217d69a",
    ("wlln-counterexample", "ui"):
        "47e3765aee608c7e4945b713e5a63c7bedf3ce09fb794bbfe2a23c90e03d8b2b",
    ("wlln-counterexample", "bounded-moment"):
        "0bd3a11b39c19520af424cda19b7fd9c8f0c8aaac2b597d0f0dd553646531c5b",
    ("x2m-example", "cesaro-domination"):
        "7c387b680dd64ef284587582f07ea8e4e7b566f2c356ba35048ffda5b429c1d1",
    ("x2m-example", "weighted-domination"):
        "8f09417644f75e4770370790b97ef1b9fb8f2f9d990b5709c48a1d5892691daa",
    # re-recorded when the closed Cesaro sup became a step source: blocks moved by
    # rounding (at most 2.9e-16 relative); same outcome and rule
    ("x2m-example", "chandra-ghosal"):
        "b07471413503250ebaebba9bd839a3df7b0bdec82940119eec418f64960cdf29",
    ("x2m-example", "series"):
        "b500457d054a25c5344f26913ca56ef5222ba04acff6769dbb8deab7ebc25575",
    ("x2m-example", "b-regularity-wlln"):
        "0c946e8c37c4b0d49dd315cee9e71a50faf16000d87725597e97969729d70123",
    ("x2m-example", "b-regularity-l2"):
        "98a18e1e9d08b0425520f4c94130c63cbdf793c417d55b0561810aaedb70e00c",
    ("x2m-example", "kG"):
        "6477d6a10b9e41c29a6ea5b113c0a86983e55643b0b95f5eb7239aca05638567",
    # re-recorded when kG-hat began reading the closed Cesaro sup exactly, as kG does
    ("x2m-example", "kG-hat"):
        "d42ed8c0e774e258da41494a55dec3ccf54651b05a322bfaa4698ed63260231e",
    ("x2m-example", "ui"):
        "4796b045b6a620a5b9a1daccce2693634c46096f22c1c494fa8b850758599005",
    ("x2m-example", "bounded-moment"):
        "644bb70abff844d199f290dd7a18911c06c230999233f5ae4825691d541432ec",
    ("mixed", "cesaro-domination"):
        "0a3245ceb6421173c68b00406a75117bb93d6b88367c48dde222186a257eafcd",
    ("mixed", "weighted-domination"):
        "e2668224dac5d5b8524f8bfee2311178a553013214b653a33ec2b7424db14151",
    ("mixed", "chandra-ghosal"):
        "a99b2e8a50373657b659725a4691b5c6db7b30119518998fe9ba268bc50f2318",
    ("mixed", "series"):
        "c10f60370c18e4e3310a84f70cfde3405493e39f8d4ce4a3ad3905ae33fd0c18",
    ("mixed", "b-regularity-wlln"):
        "0bc2074c3c96b2e7d82881f3ba85e3e073234920a91d50b682eb3f5932c7f4fa",
    ("mixed", "b-regularity-l2"):
        "3b071cc7ada12ce0fd03e55622bf5da8829f60d79d5221a375654b74a38de6fb",
    ("mixed", "kG"):
        "42272fa2dd66bc17ac30bd9814276779ae0b6698a954e32f9ace11af2b2dd64c",
    ("mixed", "kG-hat"):
        "fe1fdeda645cb2cffd82e8a4552b66b5845e8c05d89e9b202d71f1cc7c365f52",
    # re-recorded when Pareto power moments became an exact antiderivative: the
    # quadrature's error showed from 4.6e-14 relative at level 1 to 2.1e-2 at the
    # last levels (values near 1e-20); same outcome.  Re-recorded again when the
    # level a mapped to a^(1/p) in closed form, not by bisection: 1.2499999999999947
    # became 1.25, and no value moved by more than 7.1e-15 relative; same outcome
    ("mixed", "ui"):
        "7f9f3ad32e638ec7fd74c5e523f8bb77fb3a9d4fcbd47d43562c71b690a0dc5f",
    # re-recorded for the exact Pareto moments: the sup moved by 5.8e-14 relative,
    # and rows 2 and 6, equal up to rounding, swapped as attained_at; same outcome
    ("mixed", "bounded-moment"):
        "5411e9acd2f593d90c8ce1216757add6a769fd891db22c26f75b98f95da1dd28",
}

VERIFY_DIGEST = "96f3f4b0af5a4670d4f827a72e580ef6a0391f22a1615a012b56cdd672e26fa9"


def digest(rc: int, err: str, report=None) -> str:
    h = hashlib.sha256(f"{rc}\n{err}".encode())
    if report is not None and report.exists():
        h.update(report.read_bytes())
    return h.hexdigest()


def check_digest(tmp_path, capsys, source: str, condition: str, via_spec: bool) -> str:
    if source == "mixed" or via_spec:
        spec = tmp_path / f"{source}.json"
        spec.write_text(json.dumps(mixed_spec() if source == "mixed" else {"fixture": source}))
        args = ["--spec", str(spec)]
    else:
        args = ["--fixture", source]
    out = tmp_path / "check"
    rc = cli_main(["check", *args, "--conditions", condition, *SIZE, "--out", str(out)])
    report = out.with_suffix(".json")
    if report.exists():  # a run that exits 2 writes none
        json.loads(report.read_text(), parse_constant=reject_constant)
    return digest(rc, capsys.readouterr().err, report)


def reject_constant(token: str):
    """``json.loads``' hook for Infinity, -Infinity and NaN, which RFC 8259 lacks."""
    raise ValueError(f"non-standard JSON token {token}")


ROUTES = [pytest.param(s, c, False, id=f"{s}-{c}") for s, c in sorted(CHECK_DIGESTS)] + [
    pytest.param(s, c, True, id=f"{s}-{c}-spec") for s, c in sorted(CHECK_DIGESTS) if s != "mixed"]


@pytest.mark.parametrize("source,condition,via_spec", ROUTES)
def test_check_golden_digest(tmp_path, capsys, source, condition, via_spec):
    got = check_digest(tmp_path, capsys, source, condition, via_spec)
    assert got == CHECK_DIGESTS[source, condition]


def test_check_golden_covers_every_condition_and_input():
    sources = ("example-2.1", "example-4.1", "wlln-counterexample", "x2m-example", "mixed")
    assert set(CHECK_DIGESTS) == {(s, c) for s in sources for c in CONDITIONS}
    assert tuple(conditions.CONDITIONS) == CONDITIONS  # the table, in its help-text order


def test_verify_fixtures_golden_digest(capsys):
    rc = cli_main(["verify-fixtures", "--n-sup", "300", "--n", "2000"])
    assert digest(rc, capsys.readouterr().err) == VERIFY_DIGEST
