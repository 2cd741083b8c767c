import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import clone_patterns
from lpmch import classify, factor, canonical_point, lpm_distance, lpm_geodesic
from lpmch import pattern_from_string, sampling
from lpmch.cli import main
from lpmch.matio import _json_lines, format_float, matrix_to_json_line, read_matrix, write_matrix


def write(tmp_path, name, rows):
    path = tmp_path / name
    write_matrix(np.asarray(rows, dtype=float), str(path))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_output(tmp_path, capsys):
    path = write(tmp_path, "a.json", [[1.0, 2.0], [2.0, 1.0]])
    code, out, err = run(capsys, "classify", path)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "pattern: +-"
    assert lines[1] == "inertia: 1"
    assert lines[2].split() == ["minors:", "1", "-3"]


@pytest.mark.parametrize("cone", ["lpm", "tpm"])
def test_classify_eliminates_once(tmp_path, capsys, monkeypatch, cone):
    import lpmch.core

    calls = []
    kernel = lpmch.core.ldl
    monkeypatch.setattr(lpmch.core, "ldl", lambda A: calls.append(1) or kernel(A))
    path = write(tmp_path, "a.json", [[1.0, 2.0], [2.0, 1.0]])
    code, out, _ = run(capsys, "classify", path, "--cone", cone)
    assert code == 0 and out.startswith("pattern: ")
    assert len(calls) == 1


def test_classify_tpm(tmp_path, capsys):
    path = write(tmp_path, "a.json", [[-1.0, 0.0], [0.0, 1.0]])
    code, out, _ = run(capsys, "classify", path, "--cone", "tpm")
    assert code == 0
    assert out.splitlines()[0] == "pattern: +-"


def test_factor_roundtrip_file(tmp_path, capsys):
    A = np.array([[1.0, 2.0], [2.0, 1.0]])
    src = write(tmp_path, "a.csv", A)
    dst = str(tmp_path / "l.csv")
    code, _, _ = run(capsys, "factor", src, "--output", dst)
    assert code == 0
    L = read_matrix(dst)
    expected = factor(classify(A), canonical_point((1, -1)))
    # 17 significant digits make the file round-trip bit-exact
    assert np.array_equal(L, expected)


@pytest.mark.parametrize("cone", ["lpm", "tpm"])
def test_factor_eliminates_twice(tmp_path, capsys, monkeypatch, cone):
    import lpmch.cholesky
    import lpmch.core

    calls = []
    kernel = lpmch.core.ldl

    def counted(A):
        calls.append(1)
        return kernel(A)

    monkeypatch.setattr(lpmch.core, "ldl", counted)
    monkeypatch.setattr(lpmch.cholesky, "ldl", counted)
    path = write(tmp_path, "a.json", [[1.0, 2.0], [2.0, 1.0]])
    code, _, _ = run(capsys, "factor", path, "--cone", cone, "-o", str(tmp_path / "l.json"))
    assert code == 0
    # classify, then the point's own LDL*; the canonical basis is not eliminated
    assert len(calls) == 2


def test_factor_epsilon_must_match_the_point(tmp_path, capsys):
    path = write(tmp_path, "a.json", [[1.0, 2.0], [2.0, 1.0]])
    code, _, err = run(capsys, "factor", path, "--epsilon=++")
    assert code == 1 and err.startswith("PatternMismatch:")
    code, out, _ = run(capsys, "factor", path, "--epsilon=+-")
    assert code == 0 and out


def test_pattern_of_dashes_only(tmp_path, capsys):
    # Some argparse versions read an explicit '--' value as the end of options.
    minus = write(tmp_path, "m.json", [[-1.0, 0.5], [0.5, 2.0]])
    plus = write(tmp_path, "p.json", [[1.0, 2.0], [2.0, 1.0]])
    dst = str(tmp_path / "out.json")
    code, _, _ = run(capsys, "resign", plus, "--to=--", "-o", dst)
    assert code == 0 and classify(read_matrix(dst)).pattern == (-1, -1)
    code, _, _ = run(capsys, "factor", minus, "--epsilon=--", "-o", dst)
    assert code == 0
    assert np.array_equal(read_matrix(dst), factor(classify(read_matrix(minus)),
                                                   canonical_point((-1, -1))))
    code, _, err = run(capsys, "factor", plus, "--epsilon=--")
    assert code == 1 and err.startswith("PatternMismatch:")
    sigma = write(tmp_path, "s.json", np.eye(2))
    code, out, _ = run(capsys, "sample", "--dist", "wishart", "--sigma", sigma,
                       "--dof", "3", "--epsilon=--", "--seed", "1")
    header, draw = out.splitlines()
    assert code == 0 and json.loads(header)["spec"]["epsilon"] == "--"
    assert classify(np.array(json.loads(draw)["rows"])).pattern == (-1, -1)


def test_factor_against_basis_file(tmp_path, capsys):
    A = write(tmp_path, "a.json", [[1.0, 2.0], [2.0, 1.0]])
    B = write(tmp_path, "b.json", [[1.0, 0.5], [0.5, -1.0]])
    dst = str(tmp_path / "l.json")
    code, _, _ = run(capsys, "factor", A, "--basis", B, "--output", dst)
    assert code == 0
    assert np.tril(read_matrix(dst)).shape == (2, 2)


def test_distance_and_geodesic(tmp_path, capsys):
    A = np.array([[1.0, 2.0], [2.0, 1.0]])
    B = np.diag([1.0, -1.0])
    pa, pb = write(tmp_path, "a.json", A), write(tmp_path, "b.json", B)
    code, out, _ = run(capsys, "distance", pa, pb)
    assert code == 0
    assert float(out) == pytest.approx(lpm_distance(classify(A), classify(B)),
                                       abs=1e-15)
    dst = str(tmp_path / "g.json")
    code, _, _ = run(capsys, "geodesic", pa, pb, "--t", "0.5", "--output", dst)
    assert code == 0
    expected = lpm_geodesic(classify(A), classify(B), 0.5).matrix
    assert np.allclose(read_matrix(dst), expected, atol=0)
    code, out, _ = run(capsys, "distance", pa, pb, "--group", "box", "--p", "inf")
    assert code == 0 and float(out) > 0


def test_mean(tmp_path, capsys):
    pa = write(tmp_path, "a.json", [[1.0, 0.0], [0.0, 1.0]])
    pb = write(tmp_path, "b.json", [[4.0, 0.0], [0.0, 4.0]])
    dst = str(tmp_path / "m.json")
    code, _, _ = run(capsys, "mean", pa, pb, "--output", dst)
    assert code == 0
    assert np.allclose(read_matrix(dst), 2 * np.eye(2), atol=1e-12)


def test_sample_deterministic_streams(tmp_path, capsys, monkeypatch):
    sigma = write(tmp_path, "s.json", [[1.0, 0.2], [0.2, 1.0]])
    argv = ["sample", "--dist", "wishart", "--sigma", sigma, "--dof", "5",
            "--epsilon", "+-", "--count", "4", "--seed", "7"]
    code, out1, _ = run(capsys, *argv)
    assert code == 0
    code, out2, _ = run(capsys, *argv)
    assert out1 == out2
    header = json.loads(out1.splitlines()[0])
    assert header["seed"] == 7 and header["count"] == 4
    draws = [json.loads(line) for line in out1.splitlines()[1:]]
    assert len(draws) == 4
    for d in draws:
        M = np.array(d["rows"])
        assert classify(M).pattern == (1, -1)
    # the environment variable takes priority over --seed
    monkeypatch.setenv("LPMCH_SEED", "7")
    code, out3, _ = run(capsys, "sample", "--dist", "wishart", "--sigma", sigma,
                        "--dof", "5", "--epsilon", "+-", "--count", "4",
                        "--seed", "99")
    assert json.loads(out3.splitlines()[0])["seed"] == 7
    assert out3.splitlines()[1:] == out1.splitlines()[1:]


def test_sample_requires_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("LPMCH_SEED", raising=False)
    sigma = write(tmp_path, "s.json", [[1.0]])
    code, _, err = run(capsys, "sample", "--dist", "wishart", "--sigma", sigma,
                       "--dof", "3", "--epsilon", "+")
    assert code == 1
    assert err.startswith("SpecInvalid:")


# The flags that each law needs, left out one group at a time ("SIGMA" is a
# 1 x 1 scale matrix file).
@pytest.mark.parametrize("dist, flags, message", (
    ("cholesky-normal", [], "cholesky-normal needs --m0 and --sigma-tilde"),
    ("wishart", ["--epsilon", "+"], "wishart needs --sigma and --dof"),
    ("clone", ["--sigma", "SIGMA", "--k", "1"], "clone needs --sigma and --dof"),
    ("inv-wishart", ["--sigma", "SIGMA", "--dof", "3"], "inv-wishart needs --epsilon"),
))
def test_sample_without_the_flags_of_its_law_is_a_domain_error(tmp_path, capsys, dist, flags,
                                                               message):
    sigma = write(tmp_path, "s.json", [[1.0]])
    flags = [sigma if flag == "SIGMA" else flag for flag in flags]
    code, out, err = run(capsys, "sample", "--dist", dist, "--seed", "1", *flags)
    assert code == 1 and out == ""
    assert err == f"SpecInvalid: {message}\n"


def test_density_measures(tmp_path, capsys):
    m0 = write(tmp_path, "m0.json", [[1.0, 0.0], [0.0, 1.0]])
    st = write(tmp_path, "st.json", (0.5 * np.eye(3)).tolist())
    x = write(tmp_path, "x.json", [[2.0, 0.3], [0.3, 1.0]])
    code, out_eta, _ = run(capsys, "density", x, "--dist", "cholesky-normal",
                           "--m0", m0, "--sigma-tilde", st)
    assert code == 0
    assert run(capsys, "density", x, "--dist", "cholesky-normal", "--m0", m0,
               "--sigma-tilde", st, "--measure", "eta") == (0, out_eta, "")
    code, out_leb, _ = run(capsys, "density", x, "--dist", "cholesky-normal",
                           "--m0", m0, "--sigma-tilde", st,
                           "--measure", "lebesgue")
    assert code == 0
    assert float(out_eta) != float(out_leb)
    code, out, _ = run(capsys, "density", x, "--dist", "wishart", "--sigma", m0,
                       "--dof", "5", "--epsilon", "++")
    assert code == 0 and float(out) < 0
    code, out, err = run(capsys, "density", x, "--dist", "clone", "--sigma", m0,
                         "--dof", "5", "--k", "1")
    assert code == 1 and out == ""
    assert err == "SpecInvalid: no density for inertial clones; use the base law\n"


def test_density_measure_of_the_wishart_laws(tmp_path, capsys):
    # Their densities are against the Lebesgue measure: --measure lebesgue
    # prints the default's bytes and --measure eta is a usage error.
    sigma = write(tmp_path, "s.json", [[1.0, 0.0], [0.0, 1.0]])
    x = write(tmp_path, "x.json", [[2.0, 0.3], [0.3, 1.0]])
    for dist in ("wishart", "inv-wishart"):
        law = ("density", x, "--dist", dist, "--sigma", sigma, "--dof", "5", "--epsilon", "++")
        code, default, _ = run(capsys, *law)
        assert code == 0
        assert run(capsys, *law, "--measure", "lebesgue") == (0, default, "")
        code, out, err = run(capsys, *law, "--measure", "eta")
        assert code == 2 and out == ""
        assert "Lebesgue measure" in err


def test_resign(tmp_path, capsys):
    src = write(tmp_path, "a.json", [[1.0, 2.0], [2.0, 1.0]])
    dst = str(tmp_path / "r.json")
    code, _, _ = run(capsys, "resign", src, "--to", "++", "--output", dst)
    assert code == 0
    out = read_matrix(dst)
    assert np.allclose(out, [[1.0, 2.0], [2.0, 7.0]], atol=1e-12)


def test_verify(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"preset": "pd_walk"}))
    code, out, _ = run(capsys, "verify", "--inequality", "ottaviani_skorohod",
                       "--trials", "2000", "--seed", "3",
                       "--config", str(config))
    assert code == 0
    assert "passed: True" in out
    assert "lhs:" in out and "rhs:" in out


def per_entry(A):
    """matrix_to_json_line of A, one format_float per entry."""
    rows = ", ".join("[" + ", ".join(format_float(x) for x in row) + "]" for row in A)
    return '{"dim": %d, "rows": [%s]}' % (len(A), rows)


def test_json_line_matches_the_per_entry_rendering():
    special = np.array([[-0.0, 5e-324, 1e300], [np.inf, np.nan, -np.inf], [0.1, -1 / 3, 2.0]])
    matrices = [special, np.array([[7.0]])]
    matrices += [np.random.default_rng(n).standard_normal((n, n)) * 10.0 ** n for n in (2, 10)]
    for A in matrices:
        assert matrix_to_json_line(A) == per_entry(A)
    assert matrix_to_json_line(special).startswith('{"dim": 3, "rows": [[-0, 4.9406564584124654e-324')


def _enumerated_clone_ranks(g, spec, m):
    """The clone draw's positions, bounded by the number of enumerated
    patterns, as it was done before patterns were unranked."""
    return g.integers(len(clone_patterns(spec)), size=m)


def _enumerated_clone_patterns(spec, ranks):
    """The clone patterns at positions ranks by indexing the enumerated
    patterns, as it was done before patterns were unranked."""
    return np.array(clone_patterns(spec), dtype=int)[ranks]


def test_clone_streams_match_the_enumerated_draw(tmp_path, capsys, monkeypatch):
    sigma = write(tmp_path, "s.json", np.eye(3) + 0.2)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"preset": "mixed_box_walk"}))
    sample = ["sample", "--dist", "clone", "--sigma", sigma, "--dof", "5",
              "--count", "20", "--seed", "5"]
    calls = [sample + ["--k", "1"], sample + ["--all-cones", "--cone", "tpm"],
             ["verify", "--inequality", "hoffmann_jorgensen", "--trials", "500",
              "--seed", "5", "--config", str(config)]]
    unranked = [run(capsys, *argv) for argv in calls]
    assert all(code == 0 for code, _, _ in unranked)
    monkeypatch.setattr(sampling, "_clone_ranks", _enumerated_clone_ranks)
    monkeypatch.setattr(sampling, "_clone_patterns", _enumerated_clone_patterns)
    assert [run(capsys, *argv) for argv in calls] == unranked


def test_ssrpm_check(tmp_path, capsys):
    good = write(tmp_path, "g.json", [[3.0, -1.0, -1.0],
                                      [-1.0, 3.0, -1.0],
                                      [-1.0, -1.0, 3.0]])
    code, out, _ = run(capsys, "ssrpm-check", good)
    assert code == 0 and out.strip() == "+++"
    bad = write(tmp_path, "b.json", np.diag([1.0, -1.0]).tolist())
    code, out, _ = run(capsys, "ssrpm-check", bad)
    assert code == 0 and out.strip() == "not SSRPM"


def test_exit_codes(tmp_path, capsys):
    # domain error: boundary matrix has a vanishing leading minor
    boundary = write(tmp_path, "z.json", [[0.0, 1.0], [1.0, 0.0]])
    code, _, err = run(capsys, "classify", boundary)
    assert code == 1
    assert err.startswith("MinorNearZero:")
    # usage error: missing file
    code, _, err = run(capsys, "classify", str(tmp_path / "missing.json"))
    assert code == 2
    assert err.startswith("error:")
    # usage error: malformed matrix file
    bad = tmp_path / "bad.json"
    bad.write_text('{"rows": [[1, "x"], [2, 3]]}')
    code, _, err = run(capsys, "classify", str(bad))
    assert code == 2


def test_classify_minors_beyond_the_float_range(tmp_path, capsys):
    X = np.random.default_rng(0).standard_normal((256, 256))
    path = write(tmp_path, "a.json", 1280 * np.eye(256) + (X + X.T) / 2)
    code, out, err = run(capsys, "classify", path)
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "pattern: " + "+" * 256
    assert out.split()[-1] == "inf"
    path = write(tmp_path, "d.json", np.diag([1e10] * 30 + [1.0] * 10))
    code, out, err = run(capsys, "classify", path)
    assert code == 1 and out == ""
    assert err.startswith("MinorNearZero: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ("classify", "ssrpm-check"))
@pytest.mark.parametrize("tol", ("-1", "nan"))
def test_bad_tolerance_is_a_usage_error(tmp_path, capsys, command, tol):
    path = write(tmp_path, "a.json", [[1.0, 1.0], [1.0, 1.0]])
    code, out, err = run(capsys, command, path, f"--tol={tol}")
    assert code == 2 and out == ""
    assert err.startswith("error: tolerance must be finite and >= 0, got ")


@pytest.mark.parametrize("p", (None, [2]))
def test_verify_exponent_that_is_not_a_number_is_a_usage_error(tmp_path, capsys, p):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"preset": "mixed_box_walk", "p": p}))
    code, out, err = run(capsys, "verify", "--inequality", "mogulskii_min",
                         "--config", str(config), "--seed", "1", "--trials", "100")
    assert code == 2 and out == ""
    assert err.startswith(f"error: p must be in [1, inf], got {p!r}")


@pytest.mark.parametrize("dim", ("null", "[1]", "true", "1.5", '"1"'))
def test_a_dim_that_is_not_an_integer_is_a_usage_error(tmp_path, capsys, dim):
    path = tmp_path / "a.json"
    path.write_text('{"dim": %s, "rows": [[1.0]]}' % dim)
    code, out, err = run(capsys, "classify", str(path))
    assert code == 2 and out == ""
    assert err == f'error: {path}: "dim" must be an integer, got {dim}\n'


@pytest.mark.parametrize("text, message", (
    ('{"rows": [[1.0, 2.0]]}', "expected a nonempty square matrix, got shape (1, 2)"),
    ("[[1.0]]", 'expected an object with "dim" and "rows"'),
    ('{"dim": 1}', 'expected an object with "dim" and "rows"'),
    ('{"dim": 2, "rows": [[1.0]]}', '"dim" 2 does not match 1 rows'),
))
def test_a_matrix_file_of_the_wrong_form_is_a_usage_error(tmp_path, capsys, text, message):
    path = tmp_path / "a.json"
    path.write_text(text)
    code, out, err = run(capsys, "classify", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("config", ("[]", '"pd_walk"', "5"))
def test_a_verify_config_that_is_not_an_object_is_a_usage_error(tmp_path, capsys, config):
    path = tmp_path / "c.json"
    path.write_text(config)
    code, out, err = run(capsys, "verify", "--inequality", "mogulskii_min",
                         "--config", str(path), "--seed", "1", "--trials", "100")
    assert code == 2 and out == ""
    assert err == f"error: {path}: expected a JSON object\n"


@pytest.mark.parametrize("key, named", [("alpah", "unknown config key 'alpah'; choose from "),
                                        ("Preset", "unknown config key 'Preset'; choose from "),
                                        ("paths", "paths is not a config key; give the "
                                                  "number of paths with --trials")])
def test_a_verify_config_key_that_nothing_reads_is_a_usage_error(tmp_path, capsys, key,
                                                                  named):
    # Such a key would leave the preset's value (or --trials) in place without a word.
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"preset": "pd_walk", key: 5}))
    code, out, err = run(capsys, "verify", "--inequality", "ottaviani_skorohod",
                         "--config", str(path), "--seed", "1", "--trials", "100")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {named}") and err.count("\n") == 1


@pytest.mark.parametrize("command", ("classify", "factor", "ssrpm-check"))
@pytest.mark.parametrize("bad", (np.nan, np.inf))
def test_non_finite_matrix_is_a_named_domain_error(tmp_path, capsys, command, bad):
    path = write(tmp_path, "a.csv", [[1.0, bad], [bad, 2.0]])
    code, out, err = run(capsys, command, path)
    assert code == 1 and out == ""
    assert err.startswith("NonFiniteInput: ") and "Warning" not in err


def test_clone_header_prints_the_base_dof(tmp_path, capsys):
    sigma = write(tmp_path, "s.json", np.eye(3) + 0.2)
    code, out, _ = run(capsys, "sample", "--dist", "clone", "--sigma", sigma, "--dof", "5",
                       "--k", "1", "--count", "2", "--seed", "3")
    assert code == 0
    assert json.loads(out.splitlines()[0])["spec"]["dof"] == 5


def test_negative_sample_count_fails_before_the_header(tmp_path, capsys):
    sigma = write(tmp_path, "s.json", np.eye(2))
    draw = ["sample", "--dist", "wishart", "--sigma", sigma, "--dof", "3",
            "--epsilon", "+-", "--seed", "1", "--count"]
    code, out, err = run(capsys, *draw, "-1")
    assert code == 1 and out == ""
    assert err.startswith("SpecInvalid: ")
    code, out, _ = run(capsys, *draw, "0")
    assert code == 0 and json.loads(out)["count"] == 0


def test_csv_roundtrip(tmp_path, capsys):
    A = np.array([[np.pi, 0.0], [1.0 / 3.0, np.e]])
    L = np.tril(A) + np.eye(2)
    src = tmp_path / "l.csv"
    write_matrix(L, str(src))
    assert np.array_equal(read_matrix(str(src)), L)


def test_factor_generic_n256_file(tmp_path, capsys):
    X = np.random.default_rng(0).standard_normal((256, 256))
    src = write(tmp_path, "a.json", (X + X.T) / 2)
    dst = str(tmp_path / "l.json")
    code, _, err = run(capsys, "factor", src, "--output", dst)
    assert code == 0 and err == ""
    L = read_matrix(dst)
    assert np.all(np.isfinite(L)) and np.array_equal(L, np.tril(L))


def run_fresh(code):
    """Runs code in a fresh interpreter that imports lpmch from this tree."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_cli_import_does_not_load_scipy():
    run_fresh("import lpmch.cli, sys; assert 'scipy' not in sys.modules")


def test_cli_import_loads_only_what_classify_needs():
    run_fresh("import sys, lpmch.cli\n"
              "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'lpmch')\n"
              "assert loaded == ['lpmch', 'lpmch.cli', 'lpmch.core', 'lpmch.errors', "
              "'lpmch.matio'], loaded")


def test_classify_loads_neither_sampling_nor_inequalities(tmp_path):
    path = write(tmp_path, "a.json", [[1.0, 2.0], [2.0, 1.0]])
    run_fresh("import sys\n"
              "from lpmch.cli import main\n"
              f"assert main(['classify', {path!r}]) == 0\n"
              "assert not {'lpmch.sampling', 'lpmch.inequalities'} & set(sys.modules)")


# One pattern per n of the sample tests.
_PATTERNS = {1: "-", 10: "+--+-++-+-"}


def _law_files(tmp_path, n):
    """Files of a scale matrix, an LPM centre point of pattern _PATTERNS[n]
    and its reversal (a TPM point of that pattern), and a coordinate
    covariance at n."""
    rng = np.random.default_rng(n)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eps = np.array(pattern_from_string(_PATTERNS[n]), dtype=float)
    signs = eps * np.concatenate(([1.0], eps[:-1]))
    L = np.tril(rng.standard_normal((n, n)), -1) / np.sqrt(n) + np.diag(rng.uniform(0.5, 2.0, n))
    m0 = (L * signs) @ L.T
    m0 = (m0 + m0.T) / 2
    return {"sigma": write(tmp_path, "sigma.json", (Q * rng.uniform(0.5, 2.0, n)) @ Q.T),
            "lpm": write(tmp_path, "m0_lpm.json", m0),
            "tpm": write(tmp_path, "m0_tpm.json", m0[::-1, ::-1]),
            "sigma_tilde": write(tmp_path, "st.json", 0.02 * np.eye(n * (n + 1) // 2))}


def _sample_call(files, dist, cone, n):
    """The lpmch sample flags of a law, and the sampler and spec that draw
    the same points."""
    Spec = sampling.DistributionSpec
    sigma = read_matrix(files["sigma"])
    if dist == "cholesky-normal":
        m0 = classify(read_matrix(files[cone]), cone=cone)
        spec = Spec(kind="cholesky_normal", cone=cone, m0=m0,
                    sigma_tilde=read_matrix(files["sigma_tilde"]))
        return (["--m0", files[cone], "--sigma-tilde", files["sigma_tilde"]],
                sampling.cholesky_normal_sample, spec)
    if dist == "clone":
        base = Spec(kind="wishart", cone="lpm", pattern=(1,) * n, sigma=sigma, dof=n + 2)
        spec = Spec(kind="inertial_clone", cone=cone, base=base, k=n // 2)
        return (["--sigma", files["sigma"], "--dof", str(n + 2), "--k", str(n // 2)],
                sampling.inertial_clone_sample, spec)
    kind, draw = {"wishart": ("wishart", sampling.wishart_sample),
                  "inv-wishart": ("inverse_wishart", sampling.inverse_wishart_sample)}[dist]
    spec = Spec(kind=kind, cone=cone, pattern=pattern_from_string(_PATTERNS[n]),
                sigma=sigma, dof=n + 2)
    return (["--sigma", files["sigma"], "--dof", str(n + 2), f"--epsilon={_PATTERNS[n]}"],
            draw, spec)


class _Writes:
    """A stdout that keeps the text of each write call."""

    def __init__(self):
        self.calls = []

    def write(self, text):
        self.calls.append(text)
        return len(text)

    def flush(self):
        pass


def _check_sample_stream(tmp_path, monkeypatch, dist, cone, n, count, seed=11):
    """lpmch sample prints its header and then matrix_to_json_line of each
    point of the *_sample call of the same law and seed, one write per block
    of draws; returns the texts of the block writes."""
    flags, draw, spec = _sample_call(_law_files(tmp_path, n), dist, cone, n)
    writes = _Writes()
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", writes)
        code = main(["sample", "--dist", dist, "--cone", cone, "--count", str(count),
                     "--seed", str(seed)] + flags)
    assert code == 0
    header = json.loads(writes.calls[0])
    assert (header["seed"], header["count"]) == (seed, count)
    # print writes the header's text and its newline apart.
    assert writes.calls[1] == "\n"
    points = draw(sampling.RngStream(seed), spec, count)
    assert "".join(writes.calls[2:]) == "".join(matrix_to_json_line(p.matrix) + "\n"
                                                for p in points)
    return writes.calls[2:]


@pytest.mark.parametrize("n", (1, 10))
@pytest.mark.parametrize("cone", ("lpm", "tpm"))
@pytest.mark.parametrize("dist", ("wishart", "inv-wishart", "cholesky-normal", "clone"))
def test_sample_stream_is_the_samplers_points(tmp_path, monkeypatch, dist, cone, n):
    _check_sample_stream(tmp_path, monkeypatch, dist, cone, n, count=5)


# The block of draws per write is entries // n**2 draws, at least one: the
# library's own block at n = 10 (1310 draws), 64 draws at n = 1, and one
# draw when a matrix has more entries than a block.
@pytest.mark.parametrize("n, entries", [(10, sampling._BLOCK_ENTRIES), (1, 64), (10, 50)])
@pytest.mark.parametrize("extra", ("none", "one draw", "one block", "one block and one draw"))
def test_sample_stream_at_block_seams(tmp_path, monkeypatch, n, entries, extra):
    monkeypatch.setattr(sampling, "_BLOCK_ENTRIES", entries)
    block = max(1, entries // n**2)
    count = {"none": 0, "one draw": 1, "one block": block,
             "one block and one draw": block + 1}[extra]
    writes = _check_sample_stream(tmp_path, monkeypatch, "wishart", "lpm", n, count)
    assert [w.count("\n") for w in writes] == [block] * (count // block) + (
        [count % block] if count % block else [])


def _stack_lines(stack):
    return "".join(per_entry(A) + "\n" for A in stack)


def test_stack_rendering_matches_the_per_entry_rendering():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((4, 5, 5))
    S = X + X.transpose(0, 2, 1)
    # Mirrored 0.0 and -0.0 are not bitwise symmetric and print apart.
    zeros = S.copy()
    zeros[1, 0, 3], zeros[1, 3, 0] = 0.0, -0.0
    negative_zeros = S.copy()
    negative_zeros[2, 4, 1] = negative_zeros[2, 1, 4] = -0.0
    subnormal = S * 1e-310
    stacks = [X, S, zeros, negative_zeros, subnormal, subnormal[:, ::-1],
              np.array([[[7.0]], [[-0.0]], [[5e-324]]]), rng.standard_normal((2, 2, 3)),
              np.empty((0, 3, 3))]
    for stack in stacks:
        assert _json_lines(stack) == _stack_lines(stack)
