import csv
import json
import random

import pytest

from sylres.cli import main, parse_poly_text
from sylres.field import PrimeField

EX1_A = "1 1 1\n1 0 1\n1 2 0\n"  # (x+1)y + x^2
EX1_B = "1 1 2\n1 0 2\n1 0 1\n"  # (x+1)y^2 + y
EX2_A = "1 2 1\n1 0 1\n"  # x^2 y + y
EX2_B = "1 1 2\n1 1 0\n"  # x y^2 + x


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_poly_text():
    F = PrimeField(101)
    f = parse_poly_text("# comment\n2 1 1\n-1 0 0\n3 1 1  # same monomial\n", F)
    assert f.coeff(1, 1) == 5 and f.coeff(0, 0) == 100
    g = parse_poly_text("5 3\n", F)  # univariate: j omitted
    assert g.coeff(3, 0) == 5


def test_invfact_example1(files, capsys):
    a = files("a.txt", EX1_A)
    b = files("b.txt", EX1_B)
    code, out, err = run(capsys, ["invfact", "-p", "2", "--a", a, "--b", b, "--seed", "42"])
    assert code == 0, err
    # x^2 (x+1)^3 = x^5 + x^4 + x^3 + x^2 over F_2
    assert out.strip().splitlines() == ["1 5", "1 4", "1 3", "1 2"]


def test_invfact_seed_determinism(files, capsys):
    a = files("a.txt", EX1_A)
    b = files("b.txt", EX1_B)
    outs = set()
    for _ in range(2):
        code, out, _ = run(
            capsys, ["invfact", "-p", "2", "--a", a, "--b", b, "--seed", "7", "--json"]
        )
        assert code == 0
        data = json.loads(out)
        outs.add(json.dumps({k: data[k] for k in ("status", "sigma_terms", "degree", "seed")}))
    assert len(outs) == 1


def test_nf_worked_example(files, capsys):
    a = files("a.txt", EX2_A)
    b = files("b.txt", EX2_B)
    f = files("f.txt", "1 0 3\n1 3 2\n1 0 0\n")  # y^3 + x^3 y^2 + 1
    code, out, err = run(capsys, ["nf", "-p", "101", "--a", a, "--b", b, "--f", f])
    assert code == 0, err
    assert out.strip().splitlines() == ["100 1 2", "100 0 1", "1 0 0"]


def test_nf_ku_matches_baseline(files, capsys):
    a = files("a.txt", EX2_A)
    b = files("b.txt", EX2_B)
    rng = random.Random(1)
    fu = "\n".join(f"{rng.randrange(101)} {i}" for i in range(16))
    f = files("f.txt", fu + "\n")
    code1, out1, _ = run(capsys, ["nf", "-p", "101", "--a", a, "--b", b, "--f", f])
    code2, out2, _ = run(
        capsys, ["nf", "-p", "101", "--a", a, "--b", b, "--f", f, "--algo", "ku"]
    )
    assert code1 == code2 == 0
    assert out1 == out2


def test_nf_verify_oracle(files, capsys):
    a = files("a.txt", EX2_A)
    b = files("b.txt", EX2_B)
    f = files("f.txt", "3 4 4\n1 1 0\n")
    code, out, err = run(
        capsys, ["nf", "-p", "101", "--a", a, "--b", b, "--f", f, "--verify-oracle"]
    )
    assert code == 0, err


def test_resultant_verify_oracle(files, capsys):
    # Example 2's S_y has Smith form (1, x^2+1, x(x^2+1)): two nontrivial
    # factors, so the certificate must refuse and report the last factor.
    a = files("a.txt", EX2_A)
    b = files("b.txt", EX2_B)
    code, out, err = run(
        capsys,
        ["resultant", "-p", "101", "--a", a, "--b", b, "--seed", "5", "--verify-oracle", "--json"],
    )
    assert code == 0, err
    data = json.loads(out)
    assert data["status"] == "divisor-or-failure"
    assert data["sigma_terms"] == [[1, 3], [1, 1]]  # x^3 + x = x (x^2 + 1)
    # a generic pair certifies
    rng = random.Random(3)
    ga = files("ga.txt", "\n".join(f"{rng.randrange(1, 101)} {i} {j}" for i in range(3) for j in range(3)))
    gb = files("gb.txt", "\n".join(f"{rng.randrange(1, 101)} {i} {j}" for i in range(3) for j in range(3)))
    code, out, err = run(
        capsys,
        ["resultant", "-p", "101", "--a", ga, "--b", gb, "--seed", "5", "--verify-oracle", "--json"],
    )
    assert code == 0, err
    assert json.loads(out)["status"] == "certified-resultant"


def test_elimgen_roots_at_infinity_exit2(files, capsys):
    a = files("a.txt", EX1_A)
    b = files("b.txt", EX1_B)
    code, out, err = run(capsys, ["elimgen", "-p", "2", "--a", a, "--b", b])
    assert code == 2
    assert "roots at infinity" in err


def test_smith_oracle(files, capsys):
    a = files("a.txt", EX1_A)
    b = files("b.txt", EX1_B)
    code, out, err = run(capsys, ["smith-oracle", "-p", "2", "--a", a, "--b", b, "--json"])
    assert code == 0, err
    data = json.loads(out)
    assert data["factors"] == [[[1, 0]], [[1, 0]], [[1, 5], [1, 4], [1, 3], [1, 2]]]


@pytest.mark.parametrize(
    "knob",
    [["--algo", "ku"], ["--algo", "baseline"], ["--trials", "5"], ["--d-eps", "2"], ["--verify-oracle"], ["--seed", "1"]],
)
def test_smith_oracle_takes_no_solver_knobs(files, capsys, knob):
    # the dense oracle is deterministic and has one algorithm, so a knob it
    # would ignore is a usage error rather than a silent no-op
    a = files("a.txt", EX1_A)
    b = files("b.txt", EX1_B)
    code, out, err = run(capsys, ["smith-oracle", "-p", "2", "--a", a, "--b", b, *knob])
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "unrecognized arguments" in err and knob[0] in err


def test_usage_errors_exit1(files, capsys):
    code, _, err = run(capsys, ["invfact", "-p", "2"])
    assert code == 1
    a = files("a.txt", "garbage line\n")
    b = files("b.txt", EX1_B)
    code, _, err = run(capsys, ["invfact", "-p", "2", "--a", a, "--b", b])
    assert code == 1
    code, _, err = run(capsys, ["invfact", "-p", "4", "--a", b, "--b", b])
    assert code == 1
    assert "prime" in err


def test_verify_oracle_mismatch_exit3(files, capsys, monkeypatch):
    import sylres.cli as climod
    from sylres.upoly import UPoly

    a = files("a.txt", EX2_A)
    b = files("b.txt", EX2_B)
    F = PrimeField(101)
    monkeypatch.setattr(climod, "dense_smith", lambda M: [UPoly.one(F)] * len(M))
    code, _, err = run(capsys, ["invfact", "-p", "101", "--a", a, "--b", b, "--verify-oracle"])
    assert code == 3
    assert "oracle mismatch" in err


def test_invfact_over_extension_base_field(files, capsys):
    # --ext-degree 6 computes over F_64; the driver towers above it and the
    # answer still descends to the prime-subfield codes
    a = files("a.txt", EX1_A)
    b = files("b.txt", EX1_B)
    code, out, err = run(
        capsys, ["invfact", "-p", "2", "--ext-degree", "6", "--a", a, "--b", b, "--seed", "5"]
    )
    assert code == 0, err
    assert out.strip().splitlines() == ["1 5", "1 4", "1 3", "1 2"]


def test_invariant_commands_reject_ku(files, capsys):
    a = files("a.txt", EX2_A)
    b = files("b.txt", EX2_B)
    code, _, err = run(capsys, ["invfact", "-p", "101", "--a", a, "--b", b, "--algo", "ku"])
    assert code == 1
    assert "baseline" in err


def test_bench_rejects_ku(capsys):
    # bench times only the baseline pipeline, so rows labelled ku would lie
    code, out, err = run(capsys, ["bench", "-p", "65537", "--sizes", "2", "--seeds", "1", "--algo", "ku"])
    assert code == 1
    assert out == ""
    assert err.strip().splitlines() == ["bench only times the baseline algorithm"]


def test_bench_empty_header_only(files, capsys):
    code, out, err = run(capsys, ["bench", "-p", "65537", "--sizes", ""])
    assert code == 0, err
    assert out.strip() == "d,e,q,algo,seed,op,wall_ns,status"


def test_bench_rows(files, capsys, tmp_path):
    out_file = str(tmp_path / "bench.csv")
    code, _, err = run(
        capsys,
        [
            "bench",
            "-p",
            "65537",
            "--sizes",
            "2,3",
            "--seeds",
            "2",
            "--ops",
            "normal_form,invfact",
            "--seed",
            "9",
            "--out",
            out_file,
        ],
    )
    assert code == 0, err
    with open(out_file) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 2 * 2  # sizes x seeds x ops
    for row in rows:
        assert set(row) == {"d", "e", "q", "algo", "seed", "op", "wall_ns", "status"}
        assert row["q"] == "65537"
        assert row["op"] in ("normal_form", "invfact")
        if row["op"] == "normal_form":
            assert row["status"] == "ok"


def test_verify_oracle_above_dimension_gate_exit2(files, capsys):
    # d = 1, e = 33: n_y = 66 is above the dense oracles' gate of 64
    rng = random.Random(9)
    text = lambda: "\n".join(f"{rng.randrange(1, 65537)} {i} {j}" for i in range(2) for j in range(34))
    a = files("a.txt", text())
    b = files("b.txt", text())
    for cmd in ("invfact", "resultant"):
        code, out, err = run(capsys, [cmd, "-p", "65537", "--a", a, "--b", b, "--verify-oracle"])
        assert code == 2, err
        assert out == "" and "oracle gated to dimension 64" in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_resultant_scale_failure_exit2(files, capsys, monkeypatch):
    import sylres.invariant as invmod

    def fail(*_):
        raise invmod.DeterminantScaleError("could not find an evaluation point")

    monkeypatch.setattr(invmod, "_determinant_scale", fail)
    rng = random.Random(3)
    ga = files("ga.txt", "\n".join(f"{rng.randrange(1, 101)} {i} {j}" for i in range(3) for j in range(3)))
    gb = files("gb.txt", "\n".join(f"{rng.randrange(1, 101)} {i} {j}" for i in range(3) for j in range(3)))
    code, out, err = run(capsys, ["resultant", "-p", "101", "--a", ga, "--b", gb, "--seed", "5"])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "evaluation point" in err and "Traceback" not in err
