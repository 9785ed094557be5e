"""Seeded CLI outputs compared byte for byte against committed golden files.

`--seed` determines every output byte except the wall-clock `timings_ns`
field, which is dropped before comparison.  The inputs and goldens live in
tests/data/; to re-record the goldens after an intended output change, run
`PYTHONPATH=src python tests/test_golden_cli.py`.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from sylres.cli import main

DATA = Path(__file__).parent / "data"

# tag -> field modulus; each tag has a nf pair (with an f to reduce and a
# univariate f for --algo ku) and a smaller pair for the invariant drivers;
# the small fields also reduce f over their degree-3 extension.
FIELDS = {"p65537": 65537, "p2": 2, "p7": 7, "p2147483647": 2**31 - 1}


def _cases():
    for tag, p in FIELDS.items():
        nf = ["-p", str(p), "--a", f"{tag}_nf_a.txt", "--b", f"{tag}_nf_b.txt"]
        inv = ["-p", str(p), "--a", f"{tag}_inv_a.txt", "--b", f"{tag}_inv_b.txt", "--seed", "11"]
        yield f"{tag}_nf", ["nf", *nf, "--f", f"{tag}_nf_f.txt"]
        yield f"{tag}_nf_ku", ["nf", *nf, "--f", f"{tag}_ku_f.txt", "--algo", "ku"]
        yield f"{tag}_invfact", ["invfact", *inv]
        yield f"{tag}_resultant", ["resultant", *inv]
        if p < 10:  # the same small-field inputs over F_{p^3}
            yield f"{tag}_nf_ext3", ["nf", *nf, "--f", f"{tag}_nf_f.txt", "--ext-degree", "3"]


CASES = dict(_cases())


def _render(argv) -> str:
    """Exit code plus stdout of `sylres <argv> --json`, timings removed."""
    argv = [str(DATA / a) if a.endswith(".txt") else a for a in argv] + ["--json"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code != 0:
        return f"exit {code}\n{err.getvalue()}"
    payload = json.loads(out.getvalue())
    payload.pop("timings_ns")
    return f"exit 0\n{json.dumps(payload, sort_keys=True)}\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_cli_output(name):
    expected = (DATA / f"golden_{name}.txt").read_text()
    assert _render(CASES[name]) == expected


if __name__ == "__main__":
    for name, argv in CASES.items():
        (DATA / f"golden_{name}.txt").write_text(_render(argv))
        print(name, file=sys.stderr)
