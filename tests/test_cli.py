import hashlib
import json

import pytest

from subsym.cli import SUITES, main, run
from subsym.report import CaseResults, VerificationReport, emit


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


def _unreachable(*args, **kwargs):
    raise AssertionError("the request ran before its output path was checked")


@pytest.mark.parametrize("argv, out_dir", [
    (["verify", "hwvectors", "--out", "{missing}/r.json"], None),
    (["verify", "all", "--out", "{missing}/r.json"], None),
    (["table", "classalg", "--k", "2", "--out", "{missing}/x.csv"], None),
    (["table", "classalg", "--k", "2"], "{missing}"),
    (["table", "isotypic", "--k", "2", "--dim", "4"], "{missing}"),
], ids=["verify", "verify-all", "table-out", "classalg-out-dir", "isotypic-out-dir"])
def test_missing_output_directory_is_a_usage_error(argv, out_dir, tmp_path, monkeypatch, capsys):
    # the directory is checked before any suite or table is computed
    import subsym.cli as cli

    for name in ("run", "classalg_table_csv", "isotypic_table_json"):
        monkeypatch.setattr(cli, name, _unreachable)
    missing = str(tmp_path / "missing")
    if out_dir is not None:
        monkeypatch.setenv("SUBSYM_OUT_DIR", out_dir.format(missing=missing))
    with pytest.raises(SystemExit) as exc:
        main([a.format(missing=missing) for a in argv])
    assert exc.value.code == 2
    assert f"cannot write {missing}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "classalg", "--k", "2", "--out"],
    ["table", "classalg", "--k", "2", "--out"],
], ids=["verify", "table"])
def test_write_error_is_a_usage_error(argv, tmp_path, capsys):
    # an existing directory passes the early check; opening it then fails
    with pytest.raises(SystemExit) as exc:
        main(argv + [str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "cannot write" in err and str(tmp_path) in err


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


def test_out_dir_env_is_ignored_by_verify(tmp_path, capsys, monkeypatch):
    # SUBSYM_OUT_DIR names the directory of `table` output only; `verify`
    # writes a report only where --out says
    out_dir, cwd = tmp_path / "out", tmp_path / "cwd"
    out_dir.mkdir()
    cwd.mkdir()
    monkeypatch.setenv("SUBSYM_OUT_DIR", str(out_dir))
    monkeypatch.chdir(cwd)
    assert main(["verify", "classalg", "--k", "2"]) == 0
    capsys.readouterr()
    assert not any(out_dir.iterdir()) and not any(cwd.iterdir())


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
        (["verify", "classalg", "--n", "9", "--deg", "4", "--out", "r.json"],
         "the classalg suite does not read --n, --deg"),
        (["table", "classalg", "--k", "3", "--dim", "9"], "table classalg does not read --dim"),
        (["verify", "prop1", "--format", "csv"], "--format is read only with --out"),
    ],
    ids=["commutant-k0", "commutant-dim0", "decompose-k0", "hwvectors-dim0",
         "commutant-k9", "commutant-k-without-dim", "table-classalg-k9",
         "classalg-unread-n-deg", "table-classalg-unread-dim", "format-without-out"],
)
def test_out_of_range_tensor_parameters_are_usage_errors(argv, problem, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and problem in err


def test_run_rejects_a_flag_its_suite_does_not_read():
    with pytest.raises(ValueError, match="the classalg suite does not read --n"):
        run("classalg", {"n": 9})


def test_verify_all_records_only_the_flags_each_suite_reads(tmp_path, capsys):
    assert main(["verify", "all", "--k", "2", "--dim", "4", "--out", str(tmp_path / "r.json")]) == 0
    capsys.readouterr()
    parameters = {path.name: json.loads(path.read_text())["parameters"] for path in tmp_path.iterdir()}
    assert parameters["r_classalg.json"] == {"k": 2, "seed": 0}
    assert parameters["r_reduction.json"] == {"seed": 0}
    assert parameters["r_commutant.json"] == {"dim": 4, "k": 2, "seed": 0}
    assert len(parameters) == len(SUITES) - 1


@pytest.mark.parametrize(
    "argv, check",
    [
        (["verify", "commutant", "--k", "2", "--dim", "1"],
         "(k,N)=(2,1): operator products match class-algebra constants on S^k_0"),
        (["verify", "decompose", "--k", "2", "--dim", "1"],
         "(k,N)=(2,1): ranks equal Weyl dimensions where 2*depth(lambda) <= N, 0 elsewhere"),
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
    law = "kernel sizes equal the weight multiplicities of the sum of V(lambda + lambda*) over 2*depth(lambda) <= N"
    assert f"[PASS] decompose: (k,N)=({k},{dim}): {law}" in out


def test_decompose_weyl_check_fails_on_a_wrong_dimension(monkeypatch, capsys):
    import subsym.decompose as decompose

    dim = decompose.isotypic_dim
    monkeypatch.setattr(decompose, "isotypic_dim", lambda lam, N: dim(lam, N) + (lam == (2, 1)))
    code = main(["verify", "decompose", "--k", "3", "--dim", "5"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    name = "(k,N)=(3,5): ranks equal Weyl dimensions where 2*depth(lambda) <= N, 0 elsewhere"
    rank = decompose.isotypic_rank((2, 1), 3, 5)
    # the weight-multiplicity check does not read isotypic_dim, so it passes
    assert [line for line in out if line.startswith("[FAIL]")] == [
        f"[FAIL] decompose: {name}  witness: lambda (2, 1): rank {rank}, expected {rank + 1}"]


def test_decompose_weyl_check_shows_a_fractional_rank(monkeypatch, capsys):
    # a class trace off by one gives the rank of (3,) a sixth more: the rank
    # is reported as that rational, not rounded
    import subsym.decompose as decompose

    traces = decompose._class_traces
    monkeypatch.setattr(decompose, "_class_traces", lambda k, N: {
        mu: t + (mu == (2, 1)) for mu, t in traces(k, N).items()})
    assert main(["verify", "decompose", "--k", "3", "--dim", "5"]) == 1
    out = capsys.readouterr().out.splitlines()
    name = "(k,N)=(3,5): ranks equal Weyl dimensions where 2*depth(lambda) <= N, 0 elsewhere"
    expected = decompose.isotypic_dim((3,), 5)
    assert f"[FAIL] decompose: {name}  witness: lambda (3,): rank {6 * expected + 1}/6, expected {expected}" in out


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


def test_check_reads_verdict_witness_and_cases_off_the_failures():
    rep = VerificationReport(suite="demo", parameters={})
    rep.check("clean", CaseResults([], 3))
    rep.check("broken", CaseResults(["first", "second"], 3))
    rep.check("empty", CaseResults([], 0))
    assert [(c.status, c.witness) for c in rep.checks] == [
        ("pass", None), ("fail", "first"), ("fail", "vacuous: 0 cases")]


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

    draw = SparseTensor.random
    degrees = []

    def spy(k, N, rng, bound, **support):
        degrees.append(k)
        return draw(k, N, rng, bound, **support)

    monkeypatch.setattr(SparseTensor, "random", staticmethod(spy))
    (rep,) = run("symbols", {"n": 2, "d": 4, "seed": 0})
    # the recursion tensor has d columns; the skew checks draw three
    assert degrees == [4, 3]
    assert rep.passed and rep.parameters["d"] == 4


@pytest.mark.parametrize("n", [1, 2, 3])
def test_operator_suites_raise_no_warning(n):
    # higher_symmetry_op rejects a tensor that is not totally trace-free, and
    # every tensor these suites hand it is, so they pass with warnings as errors
    import random
    import warnings

    from subsym.ambient import AmbientModel, higher_symmetry_op
    from subsym.scalars import rat
    from subsym.tensor import SparseTensor
    from support import column_symmetric

    unit = SparseTensor(1, 3, {((0,), (0,)): rat(1)})
    traced = column_symmetric(2, 3, random.Random(n))
    assert not traced.is_trace_free()
    for bad in (unit, traced):
        with pytest.raises(ValueError):
            higher_symmetry_op(AmbientModel(1), bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
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


def test_class_size_check_compares_with_the_enumerated_classes(monkeypatch):
    # swapping z_lambda of (2,2) and (3,1) keeps the class equation, so only
    # the comparison with the enumerated classes can catch it
    import subsym.classalg as classalg

    z = classalg.z_lambda
    swap = {(2, 2): (3, 1), (3, 1): (2, 2)}
    monkeypatch.setattr(classalg, "z_lambda", lambda lam: z(swap.get(tuple(lam), tuple(lam))))
    (rep,) = run("classalg", {"k": 4, "seed": 0})
    witnesses = {c.name: c.witness for c in rep.checks if c.status != "pass"}
    assert witnesses == {"k=4: class sizes k!/z sum to k!": "class (3, 1): k!/z = 3, enumerated 8"}


def test_skew_vanishing_failures_name_their_trial_and_slots(monkeypatch):
    # with the identity in place of e_lam every seeded tensor survives the skew
    import subsym.decompose as decompose
    from subsym.scalars import rat

    monkeypatch.setattr(decompose, "central_idempotent", lambda lam: {tuple(range(sum(lam))): rat(1)})
    (rep,) = run("hwvectors", {"seed": 0})
    witnesses = {c.name: c.witness for c in rep.checks if c.status != "pass"}
    assert witnesses == {
        "skew vanishing for lambda=(2,) (k=2, N=3, 5 seeded tensors)": "trial 0, slots (0, 1)",
        "skew vanishing for lambda=(3,) (k=3, N=4, 5 seeded tensors)": "trial 0, slots (0, 1)",
        "skew vanishing for lambda=(2, 1) (k=3, N=3, 5 seeded tensors)": "trial 0, slots (0, 1, 2)",
    }


def test_conjugation_lemma_failure_names_the_lemma(monkeypatch):
    # an embedding that forgets sigma breaks the even lemma at the first
    # nontrivial sigma
    import subsym.decompose as decompose

    monkeypatch.setattr(decompose, "embed_even", lambda sig, k: tuple(range(2 * k)))
    (rep,) = run("commutant", {"k": 2, "dim": 4, "seed": 0})
    witnesses = {c.name: c.witness for c in rep.checks if c.status != "pass"}
    assert witnesses == {"Ad-conjugation lemmas (k=2, N=3)": "even lemma s~(2,) sigma=(1, 0)"}


def test_hwvector_witness_is_the_first_failing_case(monkeypatch):
    import subsym.decompose as decompose

    monkeypatch.setattr(decompose, "highest_weight_vector", lambda lam, N: {})
    (rep,) = run("hwvectors", {"seed": 0})
    witnesses = {c.name: c.witness for c in rep.checks if c.status != "pass"}
    assert witnesses == {"highest-weight vectors nonzero for 2*depth <= N, k <= 3, N <= 6": "lambda=(1,), N=2"}


def test_probability_check_names_the_pair(monkeypatch):
    # doubling one structure constant breaks both the oracle comparison and
    # the probabilities, at the same pair
    import subsym.classalg as classalg

    table = classalg.structure_constant_table

    def doubled(k):
        return {key: {tau: (1 + (key == ((2,), (2,)))) * c for tau, c in p.items()} for key, p in table(k).items()}

    monkeypatch.setattr(classalg, "structure_constant_table", doubled)
    (rep,) = run("classalg", {"k": 2, "seed": 0})
    witnesses = {c.name: c.witness for c in rep.checks if c.status != "pass"}
    assert witnesses == {
        "k=2: enumeration == convolution on all basis pairs": "k=2 (2,)x(2,)",
        "k=2: structure constants are probabilities": "k=2 (2,)x(2,)",
    }


def test_convolution_divided_by_one_class_size_fails_at_its_first_pair(monkeypatch):
    # the mutant divides each class count by |C_lam| alone, i.e. it is |C_mu|
    # times the true product; every class of S_1 and S_2 has one element, so
    # k = 1, 2 pass and k = 3 fails first at (3,) x (3,), where |C_(3)| = 2
    import subsym.classalg as classalg

    oracle = classalg._basis_product_convolution

    def one_size(k, lam, mu):
        size = len(classalg.class_elements(k)[mu])
        return {tau: p * size for tau, p in oracle(k, lam, mu).items()}

    monkeypatch.setattr(classalg, "_basis_product_convolution", one_size)
    (rep,) = run("classalg", {"k": 3, "seed": 0})
    witnesses = {c.name: c.witness for c in rep.checks if c.status != "pass"}
    assert witnesses == {"k=3: enumeration == convolution on all basis pairs": "k=3 (3,)x(3,)"}


def test_worked_products_print_the_computed_product(monkeypatch):
    import subsym.classalg as classalg

    multiply = classalg.class_multiply
    monkeypatch.setattr(classalg, "class_multiply", lambda u, v: multiply(u, v).scale(2))
    (rep,) = run("classalg", {"k": 1, "seed": 0})
    worked = {c.name: (c.status, c.witness) for c in rep.checks[:4]}
    assert worked == {
        "k=2: x.x = 1": ("fail", "computed (2)*C[1, 1]"),
        "k=3: x.x = (1+2y)/3": ("fail", "computed (2/3)*C[1, 1, 1] + (4/3)*C[3]"),
        "k=3: x.y = x": ("fail", "computed (2)*C[2, 1]"),
        "k=3: y.y = (1+y)/2": ("fail", "computed (1)*C[1, 1, 1] + (1)*C[3]"),
    }


def test_trace_free_check_names_the_first_nonzero_contraction(monkeypatch):
    # one entry with U = (0, 1), L = (1, 0) survives the contractions (0, 1)
    # and (1, 0) only
    import subsym.ambient
    from subsym.scalars import rat
    from subsym.tensor import SparseTensor

    decompose = subsym.ambient.compose_decompose

    def traced(m, V, W, w1, w2):
        parts = decompose(m, V, W, w1, w2)
        return parts._replace(T=parts.T + SparseTensor(2, m.N, {((0, 1), (1, 0)): rat(1)}))

    monkeypatch.setattr(subsym.ambient, "compose_decompose", traced)
    (rep,) = run("composition", {"seed": 0})
    witnesses = {c.name: c.witness for c in rep.checks if c.status != "pass"}
    assert witnesses == {f"pair {i}: T totally trace-free": "contraction (0, 1) nonzero" for i in range(5)}


@pytest.mark.parametrize("oracle, witness", [
    (lambda orc: None, "the oracle has no unique solution"),
    (lambda orc: (orc[0], orc[1].scale(2)), "Utilde differs"),
    (lambda orc: (orc[1], orc[0]), "U differs; Utilde differs"),
], ids=["no-solution", "utilde", "swapped"])
def test_oracle_check_names_what_differs(oracle, witness, monkeypatch):
    import subsym.ambient

    solve = subsym.ambient.trace_projection_oracle
    monkeypatch.setattr(subsym.ambient, "trace_projection_oracle", lambda m, V, W: oracle(solve(m, V, W)))
    (rep,) = run("composition", {"seed": 0})
    witnesses = {c.name: c.witness for c in rep.checks if c.status != "pass"}
    assert witnesses == {f"pair {i}: (U, Utilde) match the projection oracle": witness for i in range(5)}


def test_prop1_checks_fail_without_unique_type_coefficients(monkeypatch):
    import subsym.symbols as symbols

    monkeypatch.setattr(symbols, "prop1_system", lambda d, s: {"solved": False})
    (rep,) = run("prop1", {"d": 2, "s": 1, "seed": 0})
    witnesses = {c.name: c.witness for c in rep.checks if c.status != "pass"}
    labels = ["linear system has a unique solution", "diagonal symbols below s vanish",
              "top symbol is a nonzero seed multiple", "BGG residuals zero", "symbol recursions residuals zero"]
    assert witnesses == {f"(d,s)=(2,1): {label}": "no unique type coefficients" for label in labels}


def test_pinned_rank_check_shows_the_table(monkeypatch, capsys):
    # moving one dimension from (2,) to (1, 1) keeps the total
    import subsym.decompose as decompose

    table = decompose.isotypic_table
    monkeypatch.setattr(decompose, "isotypic_table", lambda k, N: {
        lam: r + (lam == (1, 1)) - (lam == (2,)) for lam, r in table(k, N).items()})
    (rep,) = run("decompose", {"seed": 0})
    witnesses = {c.name: c.witness for c in rep.checks if c.status != "pass"}
    assert witnesses["(2,4): ranks are {84, 20} with total 104"] == "ranks {(2,): 83, (1, 1): 21}, total 104"


def test_component_count_check_shows_the_count(monkeypatch):
    # zeroing the rank of (1, ..., 1) leaves p(k) - 1 nonzero components
    import subsym.decompose as decompose

    table = decompose.isotypic_table
    monkeypatch.setattr(decompose, "isotypic_table", lambda k, N: {
        lam: 0 if lam == (1,) * k else r for lam, r in table(k, N).items()})
    (rep,) = run("decompose", {"seed": 0})
    witnesses = {c.name: c.witness for c in rep.checks if c.status != "pass"}
    assert {name: w for name, w in witnesses.items() if "p(k)" in name} == {
        f"k={k}, N={2 * k}: number of nonzero components equals p(k)": f"{p - 1} nonzero components, p(k) = {p}"
        for k, p in [(1, 1), (2, 2), (3, 3)]
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
        "44c52e110c2534573b37ea59582fc16bc0cf31274752fd49b82d1c27c0eb7b27",
        "4e8bc3c99e698017dced20028592258e247ca98ba52d384d46466f65db36ee4a",
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


@pytest.mark.parametrize("suite", ["commutation", "composition", "symbols", "commutant", "hwvectors"])
def test_a_missing_seed_is_seed_0(suite):
    # every seeded suite draws from seed 0 and records it when the seed is None
    params = {"n": 2} if suite == "symbols" else {}
    (missing,) = run(suite, {**params, "seed": None})
    (default,) = run(suite, params)
    assert missing.seed == 0 and missing.dumps() == default.dumps()


def test_composition_suite_builds_each_symmetry_operator_once(monkeypatch):
    # the induced boundary check of pair 0 reads D_V o D_W, D_vw2 and D_vw1
    # off that pair's composition check instead of building them again
    import subsym.ambient

    built = []
    build = subsym.ambient.higher_symmetry_op

    def spy(m, V):
        built.append(V)
        return build(m, V)

    monkeypatch.setattr(subsym.ambient, "higher_symmetry_op", spy)
    (rep,) = run("composition", {"seed": 0})
    assert len(built) == 4 * 5  # V, W, vw2 and vw1 of each of the five pairs
    assert all(X is not Y for i, X in enumerate(built) for Y in built[:i])
    assert hashlib.sha256(rep.dumps().encode()).hexdigest() == CANONICAL_DIGESTS["composition"][0]


# sha256 of the canonical JSON report of requests away from the defaults
REQUEST_DIGESTS = {
    "commutant --k 3 --dim 5": "8ab81b65870ba18c970933beae0f0f43bc5c1f4b8ee61a8756bc909666b00235",
    "hwvectors --k 4 --dim 7": "63f4d68caef5bbfb723ee45677e457bdbd1dd0fdd2d90c7ba203763fbc757044",
    "decompose --k 3 --dim 5": "b181bb46408020e8c63b64618948797c24a11eb5d8e2f18aa3fae3a6863ce2ad",
    "prop1 --n 2 --d 4 --s 2": "cb1f57d4874cd4e84e53d789145dca4e1eb64144236b2e1bb3034d8a184967f6",
    "reduction --n 3 --deg 2": "933a50793f1f7823b093a8f5ff6870b3dcccc8e067a1275fbeb2f255d0688910",
    "composition --n 1": "9ec64ea8b925125184199bde07d7370c503d45b5ab69cc3993096c66b0a22a71",
    "commutation --n 2 --seed 3": "507b7d5dadbe50293c3ed1fe2680141d16d0bc02e46b9b69827a6e5cc2aa4e90",
    # repeated columns at d = 4 and 5, and four boundary labels
    "symbols --n 2 --d 5": "7591c3a672b2b2532a8f63c7219504acc36f9e3e785545457e8634c59403ab1f",
    "symbols --n 3 --d 4": "3bb9edf23e9729d6951fab1cabbe6d67a272f5b6e3b0af9fd0f2a442ed86502b",
    "symbols --n 4 --d 2": "b24f9b51ad03ceb9d5a69f72456d8a876be15568d037a5a949e19f61c59f2d54",
    # orbits with heavily repeated columns: six columns of three kinds, the
    # two-column tensors at n = 3, five columns at n = 3
    "prop1 --n 3 --d 6 --s 3": "4a710c50a2bbe02c30206aa6878277b74303e0e9a1944f793dc380a8610d8176",
    "composition --n 3": "55e551a332f3030ba6884a2ab653d7d39844568aed1ee6ca3634dce83c23d11f",
    "symbols --n 3 --d 5": "f59d0fba7bf8e3d6642658f3abc9fec1b16ef48f2a01595c935465ceed90402a",
    # powers of the section and extension images shared across degrees up to
    # 5, and a composition at w1 != w2, where the first-order coefficient
    # beta is nonzero (it vanishes at the n = 2 default)
    "reduction --n 2 --deg 5": "57a344501e51763566ae90f699f3f185b14dc74dd8e16c7c0fc3d58a11dcd3e1",
    "composition --n 1 --w1 1 --w2 -2": "cdf1264dce37d30b2c610935dec196e81b2b178de214a6d9562549e6c147534f",
}


@pytest.mark.parametrize("request_argv", list(REQUEST_DIGESTS))
def test_request_report_digest(request_argv, tmp_path, capsys):
    path = tmp_path / "rep.json"
    assert main(["verify", *request_argv.split(), "--out", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == REQUEST_DIGESTS[request_argv]
