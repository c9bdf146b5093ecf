import json
import re

import pytest

from lineact import report
from lineact.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out) if out.strip().startswith("{") else None


class TestDispatch:
    def test_gallery_list(self, capsys):
        code, doc = run_json(capsys, "gallery-list")
        assert code == 0
        assert doc["schema"] == "line-act/1"
        ids = [row["id"] for row in doc["result"]["gallery"]]
        assert "klein_bottle" in ids and "ex_1_4" in ids

    def test_eval_point(self, capsys):
        # a value may start with "-", as in -1/2, which argparse alone takes
        # for an option
        for expr, point, value in (("compose(affine(1,1),oddpower(3,fwd))", "1/2", "9/8"),
                                   ("affine(1,1)", "-1/2", "1/2")):
            code, doc = run_json(capsys, "eval", "--expr", expr, "--point", point)
            assert code == 0
            assert doc["result"]["value"]["value"] == value

    def test_eval_interval_keeps_literal_enclosures(self, capsys):
        # sqrt2 is exact, and prints as its exact text
        for lo, hi, want in (("0", "sqrt2", ["0", "sqrt2"]),
                             ("-sqrt2", "-1/2", ["-sqrt2", "-1/2"]),
                             ("pi", "4", ["3.141592653589793238462643383279502884197"
                                          "\u00b13.45e-77", "4"])):
            code, doc = run_json(capsys, "eval", "--expr", "affine(1,0)",
                                 "--interval", lo, hi)
            assert code == 0
            img = doc["result"]["image"]
            assert [img["lo"], img["hi"]] == want

    def test_orbit_prints_oversized_exact_values(self, capsys):
        # no two of this orbit's points merge
        code, doc = run_json(capsys, "orbit", "--gallery", "ex_1_4", "--k", "2",
                             "--point", "7/8", "--radius", "5")
        assert code == 0
        assert len(doc["result"]["points"]) == 191
        # g^3 in cell -2 is u -> u**4096: (15/16)**4096 has 16385 bits, past
        # the 4300-digit print bound (about 14284 bits) and within the exact
        # power cap of 8 x 4096 bits
        code, doc = run_json(capsys, "orbit", "--gallery", "ex_1_4", "--k", "2",
                             "--point=-17/16", "--radius", "3")
        assert code == 0
        values = {p["word"]: p["x"]["value"] for p in doc["result"]["points"]}
        assert len(values) == 43
        assert [w for w, v in values.items() if "[exact p/q: " in v] == ["g^-1 f^-1 g", "g^3"]
        assert values["g^3"] == "-2.0±1.73e-77 [exact p/q: 16385/16385 bits]"

    def test_orbit_csv(self, capsys):
        code, out = run(
            capsys, "orbit", "--gallery", "ex_1_2", "--alpha", "sqrt2",
            "--point", "0", "--radius", "3", "--window", "0", "1",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,word"
        assert len(lines) == 26  # 25 lattice points + header

    def test_orbit_json_coverage(self, capsys):
        code, doc = run_json(
            capsys, "orbit", "--gallery", "ex_1_2", "--alpha", "sqrt2",
            "--point", "0", "--radius", "10", "--window", "0", "1",
        )
        assert code == 0
        gap = doc["result"]["coverage_gap"]["approx"]
        assert abs(gap - 0.17157287525381) < 1e-9

    def test_relations_pass(self, capsys):
        code, doc = run_json(
            capsys, "relations", "--gallery", "ex_1_4", "--k", "2",
            "--points", "100", "--window", "-4", "5",
        )
        assert code == 0
        assert doc["result"]["passed"] is True

    def test_transitive_found_and_absent(self, capsys):
        code, doc = run_json(
            capsys, "transitive", "--gallery", "ex_1_2", "--alpha", "sqrt2",
            "--u", "0", "0.1", "--v", "0.4", "0.45", "--radius", "2",
        )
        assert code == 0 and doc["result"]["witness"] == "a^-1 b"
        code, doc = run_json(
            capsys, "transitive", "--gallery", "ex_1_1",
            "--u", "0", "0.3", "--v", "0.5", "0.8", "--radius", "8",
        )
        assert code == 1 and doc["result"]["witness"] is None

    def test_wander_check_exit_codes(self, capsys):
        code, doc = run_json(
            capsys, "wander-check", "--gallery", "klein_bottle",
            "--interval", "0.4375", "0.5625", "--radius", "4",
        )
        assert code == 0 and doc["result"]["certified"] is True
        code, doc = run_json(
            capsys, "wander-check", "--gallery", "ex_1_4", "--k", "2",
            "--interval", "0.2", "0.3", "--radius", "5",
        )
        assert code == 1
        assert doc["result"]["certified"] is False
        assert doc["result"]["witness"]

    def test_wander_find(self, capsys):
        code, doc = run_json(
            capsys, "wander-find", "--gallery", "klein_bottle",
            "--window", "-4", "4",
        )
        assert code == 0
        iv = doc["result"]["interval"]
        assert 0.0 < iv["lo_approx"] < iv["hi_approx"] < 1.0

    def test_wander_find_ladder_pivot_needs_no_grid(self, capsys):
        # g is a ladder node, whose fixed set (the integers) is read from the
        # node: a four-point grid on (-0.1, 3.1) skips 1 and 2, and its gap
        # (0, 3) is not moved off itself by f
        code, doc = run_json(
            capsys, "wander-find", "--gallery", "klein_bottle",
            "--window", "-0.1", "3.1", "--grid", "4",
        )
        assert code == 0
        res = doc["result"]
        assert (res["component"]["lo"], res["component"]["hi"]) == ("1", "2")
        assert (res["interval"]["lo"], res["interval"]["hi"]) == ("23/16", "25/16")

    def test_classify(self, capsys):
        code, doc = run_json(
            capsys, "classify", "--gallery", "ex_1_1", "--point", "0",
            "--radius", "10", "--window", "-5", "5",
        )
        assert code == 0
        assert doc["result"]["class"] == "discrete-sequence"

    def test_cantor_small(self, capsys):
        code, doc = run_json(
            capsys, "cantor", "--gallery", "ex_1_4", "--k", "2",
            "--depth", "2", "--radius", "5", "--orbit-depth", "1",
        )
        assert code == 0
        assert doc["result"]["verification"]["passed"] is True
        assert len(doc["result"]["levels"]) == 2

    def test_extend_sweep(self, capsys):
        code, doc = run_json(
            capsys, "extend", "--pairs", "15", "--points", "6",
        )
        assert code == 0
        assert doc["result"]["homomorphism_ok"] is True

    def test_extend_with_tracked_alpha_is_not_proved(self, capsys):
        # with pi as a tracked enclosure a b = b a is not proved, so neither
        # is the homomorphism, and the residual is an enclosure around zero
        code, doc = run_json(
            capsys, "extend", "--alpha", "pi", "--pairs", "4", "--points", "2",
        )
        assert code == 1
        res = doc["result"]
        assert res["homomorphism_ok"] is False
        assert res["homomorphism_residual"]["kind"] == "tracked-real"

    def test_extend_homomorphism_is_its_relations(self, capsys):
        # every round trip in these five pairs stays exact, so the residual
        # is exactly 0, yet with pi the relation a b = b a is not proved
        code, doc = run_json(
            capsys, "extend", "--alpha", "pi", "--pairs", "5", "--points", "3",
        )
        assert code == 1
        res = doc["result"]
        assert res["homomorphism_residual"]["value"] == "0"
        assert res["relations"]["passed"] is False
        assert res["homomorphism_ok"] is False

    def test_gallery_params_orbit(self, capsys):
        code, doc = run_json(
            capsys, "orbit", "--gallery", "ex_1_3", "--n", "2",
            "--point", "0", "--radius", "3",
        )
        assert code == 0
        assert doc["config"]["gallery"] == "ex_1_3"
        assert doc["config"]["params"] == {"n": 2}
        values = [p["x"]["value"] for p in doc["result"]["points"]]
        assert doc["result"]["count"] == len(values) == 15
        assert values[:8] == ["-4", "-3", "-2", "-3/2", "-1", "-1/2", "-1/4", "0"]

    def test_exact_nonzero_residual_fails_without_tolerance(self, capsys, tmp_path):
        # ab - ba is the translation by 1/1000: an exact, nonzero residual
        spec = tmp_path / "near.spec"
        spec.write_text("group free_abelian 2\ngen a = affine(2, 0)\n"
                        "gen b = affine(1, 1/1000)\n")
        code, doc = run_json(capsys, "relations", "--spec", str(spec), "--points", "3")
        assert code == 1 and doc["result"]["passed"] is False
        assert doc["result"]["worst_residual"]["value"] == "1/1000"
        assert "tol" not in doc["config"] and "tolerance" not in doc["result"]

    def test_sampled_zeros_are_not_a_proof(self, capsys, tmp_path):
        # a b != b a (at 1/2, about 1.6125 against 1.25), yet both sides agree
        # at the four odd integers of a 4-point grid on (-4, 4): exact zeros
        # that prove nothing, and a fifth point refutes the relation
        spec = tmp_path / "lucky.spec"
        spec.write_text("group free_abelian 2\ngen a = unitpowerladder(2, 1)\n"
                        "gen b = affine(1, 1)\n")
        argv = ["relations", "--spec", str(spec), "--window", "-4", "4", "--points"]
        code, doc = run_json(capsys, *argv, "4")
        (rel,) = doc["result"]["relations"]
        assert code == 1 and doc["result"]["passed"] is False
        assert rel["passed"] is False and rel["structural"] is False
        assert rel["residual"]["value"] == "0"
        code, doc = run_json(capsys, *argv, "5")
        assert code == 1 and doc["result"]["worst_residual"]["approx"] > 0.9

    def test_spec_file(self, capsys, tmp_path):
        spec = tmp_path / "a.spec"
        spec.write_text(
            "group bs 1 -2\ngen g = unitpowerladder(2,+1)\ngen f = affine(1,1)\n"
        )
        code, doc = run_json(
            capsys, "relations", "--spec", str(spec), "--points", "20",
        )
        assert code == 0 and doc["result"]["passed"] is True

    def test_tiny_translation_not_certified(self, capsys, tmp_path):
        # translation by 1e-13 moves (0, 1) onto an overlapping interval,
        # though it is within 1e-12 of the identity at every point
        spec = tmp_path / "tiny.spec"
        spec.write_text("group free_abelian 1\ngen a = affine(1, 1/10000000000000)\n")
        code, doc = run_json(capsys, "wander-check", "--spec", str(spec),
                             "--interval", "0", "1", "--radius", "3")
        assert code == 1
        res = doc["result"]
        assert res["certified"] is False and res["witness"] == "a"
        assert res["counts"] == {"violation": 6}
        assert {v["reason"] for v in res["verdicts"]} == {"identity not proved"}

    @pytest.mark.parametrize("shift", ["sqrt2", "pi"])
    def test_near_equal_coefficients_are_not_a_proof(self, capsys, tmp_path, shift):
        # a o b - b o a is the translation by (a1 - a2) * shift = 2**-301 *
        # shift, though both sides' coefficients share one 256-bit enclosure
        one = 1 << 300
        spec = tmp_path / "near.spec"
        spec.write_text(f"group free_abelian 2\n"
                        f"gen a = affine({one + 1}/{one}, {shift})\n"
                        f"gen b = affine({2 * one + 1}/{2 * one}, {shift})\n")
        code, doc = run_json(capsys, "relations", "--spec", str(spec), "--points", "3")
        assert code == 1 and doc["result"]["passed"] is False
        (rel,) = doc["result"]["relations"]
        assert rel["structural"] is False and rel["passed"] is False
        residual = rel["residual"]
        if shift == "sqrt2":
            assert residual["kind"] == "exact-quadratic"
            assert residual["value"] == f"1/{2 * one}*sqrt2"
        else:
            assert residual["kind"] == "tracked-real"
            assert residual["approx"] > 0

    @pytest.mark.parametrize("alpha", ["sqrt2", "3/2"])
    def test_commutator_of_two_translations_is_not_a_witness(self, capsys, alpha):
        # a b a^-1 b^-1 is the identity element; with sqrt2 exact, simplify
        # proves it as it does for a rational alpha
        code, doc = run_json(capsys, "wander-check", "--gallery", "ex_1_2",
                             "--alpha", alpha, "--interval", "0", "1/1000",
                             "--radius", "4")
        assert code == 0
        res = doc["result"]
        assert res["certified"] is True and res["witness"] is None
        assert res["counts"] == {"disjoint": 152, "pointwise-fixed": 8}


class TestVerdictBranches:
    """Verdicts the gallery never reaches, each against the answer known by
    construction."""

    def run_spec(self, capsys, tmp_path, text, *argv):
        spec = tmp_path / "a.spec"
        spec.write_text(text)
        return run_json(capsys, argv[0], "--spec", str(spec), *argv[1:])

    def test_certified_dense_from_two_fixed_points(self, capsys, tmp_path):
        # 2x and 2x + 1 fix 0 and -1: their commutator is a translation,
        # which the dilation shrinks towards every length
        code, doc = self.run_spec(
            capsys, tmp_path, "group free 2\ngen a = affine(2, 0)\ngen b = affine(2, 1)\n",
            "classify", "--point", "0", "--radius", "4", "--window", "0", "1")
        res = doc["result"]
        assert code == 0 and (res["class"], res["heuristic"]) == ("dense", False)
        assert "dilations a and b fix 0 and -1" in res["basis"]

    def test_sampled_fixed_point(self, capsys, tmp_path):
        # 2x and 3x both fix 0, so the orbit of 0 is {0}
        code, doc = self.run_spec(
            capsys, tmp_path, "group free 2\ngen a = affine(2, 0)\ngen b = affine(3, 0)\n",
            "classify", "--point", "0", "--radius", "4", "--window", "-1", "1")
        res = doc["result"]
        assert code == 0 and (res["class"], res["heuristic"]) == ("fixed-point", True)
        assert res["evidence"] == {"count": 1, "count_half_radius": 1, "radius": 4}

    def test_sampled_dense(self, capsys, tmp_path):
        # conjugating x + pi by 2x gives the translations by pi * 2**-n:
        # every orbit is dense, and pi keeps the class off the certified path
        code, doc = self.run_spec(
            capsys, tmp_path, "group free 2\ngen a = affine(1, pi)\ngen b = affine(2, 0)\n",
            "classify", "--point", "1/3", "--radius", "8", "--window", "0", "1")
        res = doc["result"]
        assert code == 0 and (res["class"], res["heuristic"]) == ("dense", True)
        assert (res["evidence"]["count"], res["evidence"]["count_half_radius"]) == (69, 10)
        assert res["evidence"]["coverage_gap"] < res["evidence"]["window_diameter"] / 20

    def test_trivial_action_wander_find(self, capsys, tmp_path):
        # every generator is the identity, so the whole window wanders
        code, doc = self.run_spec(
            capsys, tmp_path, "group bs 1 -1\ngen g = identity\ngen f = identity\n",
            "wander-find", "--window", "-1", "1")
        res = doc["result"]
        assert code == 0 and res["trivial_action"] is True
        assert res["pivot"] is None and res["component"] is None
        assert (res["interval"]["lo"], res["interval"]["hi"]) == ("-1", "1")


# each command with its required arguments, so that argparse reaches the
# unread flag
_REQUIRED_ARGV = {
    "gallery-list": [],
    "eval": ["--expr", "identity", "--point", "0"],
    "relations": [],
    "transitive": ["--u", "0", "1", "--v", "2", "3", "--radius", "1"],
    "wander-check": ["--interval", "0", "1", "--radius", "1"],
    "wander-find": ["--window", "0", "1"],
    "classify": ["--point", "0", "--radius", "2", "--window", "0", "1"],
    "extend": [],
    "cantor": ["--depth", "1", "--radius", "1"],
}


class TestErrorPaths:
    def test_parse_error_exit_2(self, capsys):
        code = main(["eval", "--expr", "affine(0,1)", "--point", "1"])
        assert code == 2
        assert "parse error" in capsys.readouterr().err

    def test_unknown_gallery_exit_2(self, capsys):
        code = main(["orbit", "--gallery", "zzz", "--point", "0",
                     "--radius", "1"])
        assert code == 2

    def test_bad_alpha_exit_2(self, capsys):
        code = main(["orbit", "--gallery", "ex_1_2", "--alpha", "1/0",
                     "--point", "0", "--radius", "1"])
        assert code == 2
        assert "error: cannot parse alpha '1/0'" in capsys.readouterr().err

    def test_horizon_exceeded_exit_2(self, capsys):
        code = main(["extend", "--horizon", "2", "--window", "-5", "5"])
        assert code == 2
        err = capsys.readouterr().err
        assert re.search(r"^error: cell -?\d+ beyond the configured horizon 2$",
                         err, re.M)

    def test_precision_exhausted_exit_2(self, capsys):
        code = main(["orbit", "--gallery", "ex_1_4", "--k", "3",
                     "--point=-63/4", "--radius", "2"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("precision exhausted: ")

    def test_unordered_interval_exit_2(self, capsys):
        # two enclosures of pi overlap: their order is unknown
        code = main(["eval", "--expr", "identity", "--interval", "pi", "pi"])
        assert code == 2
        assert "not certainly ordered" in capsys.readouterr().err
        # two exact sqrt2 are a provable tie: an empty open interval
        code = main(["eval", "--expr", "identity", "--interval", "sqrt2", "sqrt2"])
        assert code == 2
        assert "degenerate interval endpoints: sqrt2 .. sqrt2" in capsys.readouterr().err

    @pytest.mark.parametrize("at", [["--point", "1", "--interval", "0", "1"], []],
                             ids=["both", "neither"])
    def test_eval_takes_exactly_one_of_point_and_interval(self, capsys, at):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--expr", "affine(2,0)", *at])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--point" in captured.err and "--interval" in captured.err

    @pytest.mark.parametrize("command, unread", [
        *(pytest.param(c, "--format csv", id=c) for c in _REQUIRED_ARGV if c != "cantor"),
        # only extend draws random words, and --seed is not short for
        # cantor's --seed-interval
        pytest.param("cantor", "--seed 0", id="cantor-seed"),
        # no tolerance decides a relation: --tol is gone, as --tol-num was
        pytest.param("relations", "--tol-num 1", id="relations-tol-num"),
        pytest.param("relations", "--tol 1/10", id="relations-tol"),
        pytest.param("extend", "--tol 1/10", id="extend-tol"),
    ])
    def test_csv_only_where_offered(self, capsys, command, unread):
        # orbit and cantor print CSV and take --format; extend takes --seed
        with pytest.raises(SystemExit) as exc:
            main([command, *_REQUIRED_ARGV[command], *unread.split()])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {unread}" in captured.err

    @pytest.mark.parametrize("flag", ["--grid", "--tol-num", "--tol-den", "--tol"])
    def test_wander_check_grid_refused_exit_2(self, capsys, flag):
        # pointwise-fixed is proved exactly, so there is no grid or tolerance;
        # the old --tol-num/--tol-den pair is refused as well as --tol
        with pytest.raises(SystemExit) as exc:
            main(["wander-check", "--gallery", "ex_1_1", "--interval", "0", "2",
                  "--radius", "2", flag, "64"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} 64" in captured.err

    def test_bad_literal_exit_2(self, capsys):
        code = main(["eval", "--expr", "affine(1,0)", "--point=1.-5"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "parse error: bad numeric literal '1.-5'" in captured.err

    @pytest.mark.parametrize("argv", [
        ["relations", "--spec", "{missing}/a.spec"],
        ["eval", "--expr", "identity", "--point", "1", "--output", "{missing}/x.json"],
    ], ids=["spec", "output"])
    def test_file_error_exit_2(self, capsys, tmp_path, argv):
        argv = [a.format(missing=tmp_path / "missing") for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno 2] No such file or directory")

    def test_zero_sample_points_exit_2(self, capsys):
        for argv in (["relations", "--gallery", "ex_1_4", "--k", "2",
                      "--points", "0"],
                     ["extend", "--points", "0"]):
            code = main(argv)
            assert code == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "error: need at least one sample point" in captured.err

    @pytest.mark.parametrize("argv, message", [
        (["extend", "--pairs", "0", "--points", "2"], "need n_pairs >= 1, max_len >= 1"),
        (["extend", "--len", "0", "--pairs", "3", "--points", "2"],
         "need n_pairs >= 1, max_len >= 1"),
        (["wander-check", "--gallery", "ex_1_1", "--interval", "0", "2", "--radius", "0"],
         "radius must be at least 1, got 0"),
        (["orbit", "--gallery", "ex_1_1", "--point", "0", "--radius", "-1"],
         "radius must be nonnegative, got -1"),
        (["transitive", "--gallery", "ex_1_1", "--u", "0", "1", "--v", "2", "3",
          "--radius", "-3"], "radius must be nonnegative, got -3"),
        (["classify", "--gallery", "ex_1_2", "--alpha", "sqrt2", "--point", "0",
          "--radius", "0", "--window", "0", "1"], "radius must be at least 2, got 0"),
        (["cantor", "--gallery", "ex_1_4", "--k", "2", "--depth", "0", "--radius", "3"],
         "depth must be at least 1, got 0"),
    ])
    def test_sweep_over_nothing_exit_2(self, capsys, argv, message):
        # no pair, letter or word compared means nothing may pass or certify:
        # radius 0 would certify (0, 2) although translation by 1 overlaps it
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {message}" in captured.err

    def test_missing_action_source(self, capsys):
        code = main(["orbit", "--point", "0", "--radius", "1"])
        assert code == 2

    def test_spec_parse_error_has_position(self, capsys, tmp_path):
        spec = tmp_path / "bad.spec"
        spec.write_text("group free 1\ngen a = affine(zz,1)\n")
        code = main(["relations", "--spec", str(spec)])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 2" in err


# x -> 2**100 x: the radius-11 orbit of 1 is 2**(100 k), |k| <= 11, and
# 2**1100 lies beyond float range (2**-1100 only underflows to 0.0).
_SCALE_SPEC = "group free_abelian 1\ngen a = affine(1267650600228229401496703205376, 0)\n"
_BEYOND_FLOATS = str(2**1100)


class TestPayloadFloats:
    @pytest.fixture
    def spec(self, tmp_path):
        path = tmp_path / "scale.spec"
        path.write_text(_SCALE_SPEC)
        return str(path)

    def test_orbit_json_approx_beyond_float_range_is_null(self, capsys, spec):
        code, doc = run_json(capsys, "orbit", "--spec", spec, "--point", "1",
                             "--radius", "11", "--window", "-" + _BEYOND_FLOATS,
                             _BEYOND_FLOATS)
        assert code == 0
        xs = [p["x"] for p in doc["result"]["points"]]
        assert len(xs) == 23
        assert [i for i, x in enumerate(xs) if x["approx"] is None] == [22]
        assert xs[22]["value"] == _BEYOND_FLOATS
        assert xs[0]["approx"] == 0.0 and xs[11]["approx"] == 1.0
        window = doc["result"]["window"]
        assert window["lo_approx"] is None and window["hi_approx"] is None
        assert window["hi"] == _BEYOND_FLOATS

    def test_orbit_csv_beyond_float_range_is_inf(self, capsys, spec):
        code, out = run(capsys, "orbit", "--spec", spec, "--point", "1/2",
                        "--radius", "11", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 24
        assert lines[-1] == "inf,a^11" and lines[1] == "0.0,a^-11"

    def test_classify_evidence_beyond_float_range_is_null(self, capsys, spec):
        code, doc = run_json(capsys, "classify", "--spec", spec, "--point", "1",
                             "--radius", "11", "--window", "-" + _BEYOND_FLOATS,
                             _BEYOND_FLOATS)
        assert code == 0
        ev = doc["result"]["evidence"]
        assert ev["count"] == 23 and ev["count_half_radius"] == 11
        assert ev["window_diameter"] is None and ev["coverage_gap"] is None

    def test_orbit_csv_refuses_a_bad_window(self, capsys):
        code = main(["orbit", "--gallery", "ex_1_1", "--point", "0", "--radius", "2",
                     "--window", "1", "0", "--format", "csv"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: degenerate interval endpoints: 1 .. 0" in captured.err

    @pytest.mark.parametrize("fmt, unused", [("csv", "orbit_json"), ("json", "orbit_csv")])
    def test_orbit_builds_only_the_emitted_payload(self, capsys, monkeypatch, fmt, unused):
        def refuse(points):
            raise AssertionError(f"{unused} built under --format {fmt}")

        monkeypatch.setattr(report, unused, refuse)
        code, out = run(capsys, "orbit", "--gallery", "ex_1_2", "--alpha", "sqrt2",
                        "--point", "0", "--radius", "3", "--window", "0", "1",
                        "--format", fmt)
        assert code == 0
        assert out.startswith("x,word\n" if fmt == "csv" else "{")


class TestReproducibility:
    def test_payload_reproducible_modulo_timestamp(self, capsys):
        argv = ["orbit", "--gallery", "ex_1_2", "--alpha", "sqrt2",
                "--point", "0", "--radius", "6", "--window", "0", "1"]
        _, doc1 = run_json(capsys, *argv)
        _, doc2 = run_json(capsys, *argv)
        doc1.pop("timestamp")
        doc2.pop("timestamp")
        assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)

    def test_output_file(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        code = main(["eval", "--expr", "identity", "--point", "2",
                     "--output", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(out.read_text())
        assert doc["result"]["value"]["value"] == "2"
        assert doc["config"] == {"expr": "identity", "point": "2",
                                 "precision": 256, "ceiling": 4096}
