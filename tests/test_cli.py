import hashlib
import json

import pytest

from subsym.cli import SUITES, main, run
from subsym.report import VerificationReport, emit


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run("bogus", {})


def test_invalid_parameters_listed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "prop1", "--d", "2", "--s", "3"])
    assert exc.value.code == 2
    assert "2s <= d" in capsys.readouterr().err


def test_verify_hwvectors_passes(capsys):
    code = main(["verify", "hwvectors", "--k", "2", "--dim", "4", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS]" in out and "FAIL" not in out


@pytest.mark.parametrize("argv", [
    ["verify", "prop1", "--n", "3", "--d", "6", "--s", "3"],
    ["verify", "symbols", "--n", "2", "--d", "5"],
])
def test_high_degree_symbol_requests_pass(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS]" in out and "FAIL" not in out


def test_verify_writes_report(tmp_path, capsys):
    path = tmp_path / "rep.json"
    code = main(["verify", "decompose", "--k", "2", "--dim", "4", "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    data = json.loads(path.read_text())
    assert data["suite"] == "decompose"
    assert data["status"] == "pass"
    assert data["schema_version"] == 1
    assert all(c["status"] == "pass" for c in data["checks"])


def test_emitted_reports_byte_identical(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["verify", "classalg", "--k", "3", "--out", str(p1)])
    main(["verify", "classalg", "--k", "3", "--out", str(p2)])
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


def test_failing_report_exits_nonzero():
    rep = VerificationReport(suite="demo", parameters={})
    rep.add("doomed", False, witness="1 != 0")
    assert rep.status == "fail" and not rep.passed


def test_csv_emission(tmp_path):
    rep = VerificationReport(suite="demo", parameters={})
    rep.add("one", True)
    rep.add("two", False, witness="w")
    path = tmp_path / "rep.csv"
    emit(rep, path, "csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "suite,check,status,witness"
    assert lines[1] == "demo,one,pass,"
    assert lines[2] == "demo,two,fail,w"


def test_emit_rejects_unknown_format(tmp_path):
    rep = VerificationReport(suite="demo", parameters={})
    with pytest.raises(ValueError):
        emit(rep, tmp_path / "x", "xml")


def test_emit_surfaces_io_error():
    rep = VerificationReport(suite="demo", parameters={})
    with pytest.raises(OSError) as exc:
        emit(rep, "/nonexistent-dir/zzz/rep.json")
    assert "rep.json" in str(exc.value)


def test_classalg_table_shape(tmp_path, capsys):
    path = tmp_path / "k2.csv"
    code = main(["table", "classalg", "--k", "2", "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    lines = path.read_text().splitlines()
    # p(2) = 2: header plus two rows, each with two cells
    assert len(lines) == 3
    assert lines[1].count(":") == 2


def test_isotypic_table(tmp_path, capsys):
    path = tmp_path / "iso.json"
    main(["table", "isotypic", "--k", "2", "--dim", "4", "--out", str(path)])
    capsys.readouterr()
    data = json.loads(path.read_text())
    assert data["ranks"] == {"[2]": 84, "[1, 1]": 20}
    assert data["total"] == 104
    assert data["ranks"] == data["weyl_formula"]


@pytest.mark.parametrize("dim", [2, 4])
def test_isotypic_table_below_twice_k(dim, tmp_path, capsys):
    # below N = 2k the pieces with 2*depth(lambda) > N are 0, and so is their
    # Weyl formula entry
    path = tmp_path / "iso.json"
    assert main(["table", "isotypic", "--k", "3", "--dim", str(dim), "--out", str(path)]) == 0
    capsys.readouterr()
    data = json.loads(path.read_text())
    assert data["ranks"] == data["weyl_formula"]
    assert data["weyl_formula"]["[1, 1, 1]"] == 0
    if dim == 2:
        assert data["weyl_formula"] == {"[3]": 7, "[2, 1]": 0, "[1, 1, 1]": 0}


def test_out_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SUBSYM_OUT_DIR", str(tmp_path))
    main(["table", "classalg", "--k", "2"])
    capsys.readouterr()
    assert (tmp_path / "classalg_k2.csv").exists()


def test_all_suites_enumerated():
    assert set(SUITES) == {
        "reduction",
        "commutation",
        "composition",
        "prop1",
        "symbols",
        "classalg",
        "commutant",
        "decompose",
        "hwvectors",
        "all",
    }


def test_negative_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "classalg", "--k", "-2"])
    assert exc.value.code == 2
    assert "nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, problem",
    [
        (["verify", "commutant", "--k", "0", "--dim", "4"], "--k must be between 1 and 8"),
        (["verify", "commutant", "--k", "2", "--dim", "0"], "--dim must be at least 1"),
        (["verify", "decompose", "--k", "0"], "--k must be between 1 and 8"),
        (["verify", "hwvectors", "--dim", "0"], "--dim must be at least 1"),
        (["verify", "commutant", "--k", "9", "--dim", "2"], "--k must be between 1 and 8"),
        (["verify", "commutant", "--k", "2"], "needs --k and --dim together"),
        (["table", "classalg", "--k", "9"], "--k must be between 1 and 8"),
    ],
    ids=["commutant-k0", "commutant-dim0", "decompose-k0", "hwvectors-dim0",
         "commutant-k9", "commutant-k-without-dim", "table-classalg-k9"],
)
def test_out_of_range_tensor_parameters_are_usage_errors(argv, problem, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and problem in err


@pytest.mark.parametrize(
    "argv, check",
    [
        (["verify", "commutant", "--k", "2", "--dim", "1"],
         "(k,N)=(2,1): operator products match class-algebra constants on S^k_0"),
        (["verify", "decompose", "--k", "2", "--dim", "1"],
         "(k,N)=(2,1): isotypic ranks sum to the kernel dimension"),
        (["verify", "hwvectors", "--dim", "1"],
         "highest-weight vectors nonzero for 2*depth <= N, k <= 3, N <= 1"),
    ],
    ids=["commutant", "decompose", "hwvectors"],
)
def test_check_with_zero_cases_fails_as_vacuous(argv, check, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 1
    assert f"[FAIL] {argv[1]}: {check}  witness: vacuous: 0 cases" in out.splitlines()


@pytest.mark.parametrize("k, count", [(3, 2), (4, 3)])
def test_commutant_below_twice_k_checks_the_depth_count(k, count, capsys):
    # at N = 5 < 2k only the lambda with 2*depth(lambda) <= 5 give nonzero
    # isotypic parts, so the p(k) operators span that many dimensions
    code = main(["verify", "commutant", "--k", str(k), "--dim", "5"])
    out = capsys.readouterr().out
    assert code == 0
    claim = f"(k,N)=({k},5): the p(k) basis operators span {count} dimensions, one per lambda with 2*depth(lambda) <= N"
    assert f"[PASS] commutant: {claim}" in out.splitlines()


@pytest.mark.parametrize("k, dim", [(3, 2), (3, 4), (3, 5), (4, 5), (2, 4)])
def test_decompose_checks_the_weyl_law_at_every_dim(k, dim, capsys):
    code = main(["verify", "decompose", "--k", str(k), "--dim", str(dim)])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    where = "(stable range)" if dim >= 2 * k else "where 2*depth(lambda) <= N, 0 elsewhere"
    assert f"[PASS] decompose: (k,N)=({k},{dim}): ranks equal Weyl dimensions {where}" in out
    assert f"[PASS] decompose: (k,N)=({k},{dim}): kernel dim equals the closed-form sum" in out


def test_decompose_weyl_check_fails_on_a_wrong_dimension(monkeypatch, capsys):
    import subsym.decompose as decompose

    dim = decompose.isotypic_dim
    monkeypatch.setattr(decompose, "isotypic_dim", lambda lam, N: dim(lam, N) + (lam == (2, 1)))
    code = main(["verify", "decompose", "--k", "3", "--dim", "5"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    name = "(k,N)=(3,5): ranks equal Weyl dimensions where 2*depth(lambda) <= N, 0 elsewhere"
    rank = decompose.isotypic_rank((2, 1), 3, 5)
    assert f"[FAIL] decompose: {name}  witness: lambda (2, 1): rank {rank}, expected {rank + 1}" in out
    assert any(line.startswith("[FAIL] decompose: (k,N)=(3,5): kernel dim equals the closed-form sum")
               for line in out)


def test_commutant_rank_check_fails_on_a_wrong_rank(monkeypatch, capsys):
    import subsym.decompose as decompose

    rank = decompose.basis_operator_rank
    monkeypatch.setattr(decompose, "basis_operator_rank", lambda k, N: (rank(k, N)[0] + 1, rank(k, N)[1]))
    code = main(["verify", "commutant", "--k", "3", "--dim", "5"])
    out = capsys.readouterr().out
    assert code == 1
    assert any(line.startswith("[FAIL] commutant: (k,N)=(3,5): the p(k) basis operators span 2 dimensions")
               and line.endswith("witness: rank 3, expected 2") for line in out.splitlines())


def test_report_fails_a_check_that_examined_zero_cases():
    rep = VerificationReport(suite="demo", parameters={})
    rep.add("counted", True, cases=3)
    rep.add("empty", True, cases=0)
    assert [c.status for c in rep.checks] == ["pass", "fail"]
    assert rep.checks[1].witness == "vacuous: 0 cases"


@pytest.mark.parametrize(
    "argv, problem",
    [
        (["verify", "reduction", "--n", "0"], "--n must be at least 1"),
        (["verify", "symbols", "--d", "0"], "--d must be at least 1"),
        (["verify", "prop1", "--d", "4", "--s", "0"], "--s must be at least 1"),
        (["verify", "reduction", "--deg", "0"], "--deg must be at least 1"),
        (["verify", "composition", "--w1", "0", "--w2", "0"], "needs n + w1 + w2 = 0 (n = 2)"),
        (["verify", "composition", "--n", "3", "--w1", "-1", "--w2", "-1"],
         "needs n + w1 + w2 = 0 (n = 3)"),
        (["verify", "composition", "--w1", "-1"], "needs --w1 and --w2 together"),
        (["verify", "prop1", "--d", "4"], "the prop1 suite needs --d and --s together"),
        (["verify", "symbols", "--n", "1"], "the symbols suite needs --n at least 2"),
        (["verify", "prop1", "--n", "1"], "the prop1 suite needs --n at least 2"),
        (["verify", "all", "--n", "1"], "the symbols suite needs --n at least 2"),
    ],
    ids=["reduction-n0", "symbols-d0", "prop1-s0", "reduction-deg0",
         "composition-weights", "composition-weights-n3", "composition-w1-without-w2",
         "prop1-d-without-s", "symbols-n1", "prop1-n1", "all-n1"],
)
def test_zero_flags_and_bad_weights_are_usage_errors(argv, problem, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and problem in err


def test_symbols_degree_flag_is_used_as_given(monkeypatch):
    from subsym.tensor import SparseTensor

    draw = SparseTensor.random_disjoint_trace_free
    degrees = []

    def spy(d, N, rng, bound=2):
        degrees.append(d)
        return draw(d, N, rng, bound)

    monkeypatch.setattr(SparseTensor, "random_disjoint_trace_free", staticmethod(spy))
    (rep,) = run("symbols", {"n": 2, "d": 4, "seed": 0})
    assert degrees == [4]
    assert rep.passed and rep.parameters["d"] == 4


@pytest.mark.parametrize("n", [1, 2, 3])
def test_operator_suites_raise_no_warning(n):
    # every tensor these suites hand to higher_symmetry_op is column-symmetric
    # and trace-free, so neither of its warnings may fire
    import warnings

    from subsym.ambient import AmbientModel, higher_symmetry_op
    from subsym.scalars import rat
    from subsym.tensor import SparseTensor

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UserWarning):
            higher_symmetry_op(AmbientModel(1), SparseTensor(1, 3, {((0,), (0,)): rat(1)}))
        for suite in ("commutation", "composition"):
            (rep,) = run(suite, {"n": n, "seed": 0})
            assert rep.passed


def test_commutation_failures_name_their_witness(monkeypatch):
    # a broken D_V (plus x^0 d/dx^0) fails all three identities at the first case
    import subsym.ambient
    from subsym.weyl import WeylOperator

    higher_symmetry_op = subsym.ambient.higher_symmetry_op

    def broken(m, V):
        return higher_symmetry_op(m, V) + WeylOperator.mul_by(m.up(0)).compose(m.d_up(0))

    monkeypatch.setattr(subsym.ambient, "higher_symmetry_op", broken)
    (rep,) = run("commutation", {"n": 1, "seed": 0})
    witnesses = {c.name: c.witness for c in rep.checks if c.status != "pass"}
    assert witnesses == {
        "n=1: [lap, D_V] = 0 for the full sl(3) basis": "sl(3) basis element 0",
        "n=1: [D_V, r.] = 0 for the full sl(3) basis": "sl(3) basis element 0",
        "n=2: bracket closure on 5 seeded pairs": "pair 0",
    }


# sha256 of each suite's canonical JSON report at --seed 0 and --seed 7
# (symbols at --n 2); a refactor that keeps the checks keeps these bytes
CANONICAL_DIGESTS = {
    "reduction": (
        "1a2d65e9e3aff36bd2af823cc551b1a5b3fbdbe4d085c83f4968ed0632cd0ecc",
        "14b0f31e609a6de69f4456c5131a6ce0e7a2186c29fa3c051bf1c19f2c623803",
    ),
    "commutation": (
        "86244ea2c8d2858fbaa6dcad8dd8b3922e157e1bc2118cd27c2c9e3a527cb051",
        "5d4d4b3b1ff1c452b6d04af62e2a97edc91cf40b152f2b06a25efe9adc582fe6",
    ),
    "composition": (
        "b56865781e833ed5fc701f39729f08f7fee7e9aea1c2eca85a7234c7b8544e37",
        "97bb8bd00a72087deef679c0311ebc0610d0b7d3c0c3b0787dbb6052a189db23",
    ),
    "prop1": (
        "de1aa0e795b8cef138505e76826eb4e3519fa5c8e77312b4f823d9b817fa0c40",
        "6fe33555d3c0440cd9c25a8c2e436a38cf08f2560eaa129b4af8b32a0149ee79",
    ),
    "symbols": (
        "5bfd6df6432d31021299cf42288e9da0d3a65719a0ac94b5b93d7868e67ca02d",
        "198cf7107c0164087be4fa0964851d6b6cfba52da09f8ca5b826c01d84c9d264",
    ),
    "classalg": (
        "033be1736eb3042c31af1243756924a1122b5bf66ec75d6282950d158e6a68e6",
        "ead691c06bde5b15b265f84e3a7ff40f77c81fd56d57bf2ecf7d32f00bb2595e",
    ),
    "commutant": (
        "71cbb2c0d5f1c2b0937d664aaaeec6150f1ea7241053bea6d7c1aba72ff1ab92",
        "357b6ed533aeb1307a95aa46577e8878275dd90077e050ee1317755305d2ab1a",
    ),
    "decompose": (
        "3b2ab945fa19d4be7c588f350d1575dc622903032d12c68da4e248f6c1edf2af",
        "a627f1366d1cd572c7dd623522a2039b1e3ada48a89bb5bd9e136156c86a85c1",
    ),
    "hwvectors": (
        "fd5f6a223125cecbee694fc66a61121388576004b0aa41db69456ecc5089bcc4",
        "a2d8aff2405471382aef2004491192323a5ac74c2f210c88a045a5c4789d8930",
    ),
}


@pytest.mark.parametrize("suite", list(CANONICAL_DIGESTS))
def test_canonical_report_digest(suite):
    for seed, digest in zip((0, 7), CANONICAL_DIGESTS[suite]):
        params = {"seed": seed, **({"n": 2} if suite == "symbols" else {})}
        (rep,) = run(suite, params)
        assert hashlib.sha256(rep.dumps().encode()).hexdigest() == digest, f"seed {seed}"
