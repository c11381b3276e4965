"""Command-line driver: subcommands, exit codes, JSON round trips."""

import json
from pathlib import Path

import pytest

from qtheta.cli import builtin_multiplier, main
from qtheta.heisenberg import HeisElement
from qtheta.jsonio import (
    JsonReader,
    heis_to_json,
    multiplier_from_json,
    multiplier_to_json,
    param_from_json,
    param_to_json,
    smallelem_to_json,
)
from qtheta.multiplier import multiplier_new
from qtheta.scalars import CycloField, UnitMonomial
from qtheta.torus import QuantParam, TorusPoint

F = CycloField(1)


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_json_roundtrips():
    p = QuantParam.standard_tq(CycloField(4))
    assert param_from_json(param_to_json(p)) == p
    L = builtin_multiplier("jacobi", F)
    L2 = multiplier_from_json(multiplier_to_json(L))
    assert L2.images == L.images and L2.sqrt_pairing == L.sqrt_pairing
    img = L.images[0]
    assert JsonReader(L.param).heis(heis_to_json(img)) == img


def test_verify_pass_exit_zero(capsys):
    code, rep = run(["verify", "E016"], capsys)
    assert code == 0
    assert rep["status"] == "pass" and rep["identity"] == "E016"


def test_jobs_flag_is_a_usage_error(capsys):
    # verification has one serial path; there is no --jobs to ask for another
    with pytest.raises(SystemExit) as exc:
        main(["--jobs", "2", "verify", "E016"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_verify_custom_spec_and_failure(tmp_path, capsys):
    # theta braid with a corrupted coefficient: exit 1, mismatch pinpointed
    spec = {
        "schema": 1,
        "identity": "corrupted-braid",
        "mode": "product_identity",
        "param": {"m": 1, "rank": 2, "A": [[0, 2], [-2, 0]], "S": [[0, 0], [0, 0]]},
        "window": 2,
        "order": 10,
        "terms": [
            {
                "coeff": {"m": 1, "coeff": ["1"], "uexp": 2},
                "word": [
                    {"type": "builtin", "name": "theta_on_Tq_u"},
                    {"type": "builtin", "name": "theta_on_Tq_v"},
                ],
            },
            {
                "coeff": {"m": 1, "coeff": ["-1"], "uexp": 0},
                "word": [
                    {"type": "builtin", "name": "theta_on_Tq_u"},
                    {"type": "builtin", "name": "theta_on_Tq_v"},
                ],
            },
        ],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, rep = run(["verify", str(path)], capsys)
    assert code == 1
    assert rep["status"] == "fail"
    assert "first_mismatch" in rep
    # the same spec with coefficient 1 passes
    spec["terms"][0]["coeff"]["uexp"] = 0
    path.write_text(json.dumps(spec))
    code2, rep2 = run(["verify", str(path)], capsys)
    assert code2 == 0 and rep2["status"] == "pass"


def test_theta_subcommand(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, rep = run(
        ["--out", str(out), "theta", "builtin:jacobi", "--window", "8", "--order", "80"],
        capsys,
    )
    assert code == 0
    assert rep["dim"] == 1 and rep["index"] == 1 and rep["ample"] is True
    table = {tuple(h): terms for h, terms in (
        (c[0], c[1]["terms"]) for c in rep["basis"][0]["coeffs"]
    )}
    for n in range(-6, 7):
        if 2 * n * n <= 80:
            assert table[(n,)] == [[2 * n * n, ["1"]]]
    assert json.loads(out.read_text()) == rep


def test_theta_from_json_file(tmp_path, capsys):
    mult = multiplier_to_json(builtin_multiplier("jacobi2", F))
    path = tmp_path / "jacobi2.json"
    path.write_text(json.dumps(mult))
    code, rep = run(["theta", str(path), "--window", "4", "--order", "40"], capsys)
    assert code == 0 and rep["dim"] == 2


SNAPSHOTS = Path(__file__).parent / "data" / "cli"


@pytest.mark.parametrize(
    "name", ["theta_jacobi2", "theta_odd", "act_jacobi2", "small_group_jacobi2"]
)
def test_theta_reports_match_snapshots(name, tmp_path, capsys):
    """Full reports, byte for byte, against snapshots recorded when theta
    coefficients were still walked one recurrence step at a time.
    ``theta_odd`` is the rank-1 multiplier [u; x = (u), h = (1)], whose
    valuation diagonal is odd."""
    p1, u = QuantParam.trivial(F, 1), UnitMonomial(F.one(), 1)
    odd = multiplier_new(p1, [HeisElement(p1, u, TorusPoint((u,)), (1,))])
    (tmp_path / "odd.json").write_text(json.dumps(multiplier_to_json(odd)))
    elem = smallelem_to_json(UnitMonomial.one(F), TorusPoint((UnitMonomial(-F.one(), 0),)), (0,))
    (tmp_path / "elem.json").write_text(json.dumps(elem))
    args = {
        "theta_jacobi2": ["theta", "builtin:jacobi2"],
        "theta_odd": ["theta", str(tmp_path / "odd.json")],
        "act_jacobi2": ["act", str(tmp_path / "elem.json"), "builtin:jacobi2"],
        "small_group_jacobi2": ["small-group", "builtin:jacobi2"],
    }[name]
    assert main(args) == 0
    assert capsys.readouterr().out == (SNAPSHOTS / f"{name}.json").read_text()


def test_compose_subcommand(capsys):
    code, rep = run(["compose", "builtin:jacobi", "builtin:jacobi"], capsys)
    assert code == 0
    assert rep["ample"] is True
    assert rep["B_rank"] == 1
    # composed scalar is q^2: uexp 4
    assert rep["images"][0]["c"]["uexp"] == 4


def test_compose_not_composable_exits_one(capsys):
    code, rep = run(["compose", "builtin:jacobi", "builtin:negated"], capsys)
    assert code == 1
    assert rep["error"] == "NotComposable"


def test_small_group_subcommand(capsys):
    code, rep = run(["small-group", "builtin:jacobi2"], capsys)
    assert code == 0
    assert rep["index"] == 2 and rep["kappa_orders"] == [2]
    nontrivial = [d for d in rep["duality"] if d["kappa"] == [1] and d["coset"] == 1]
    assert nontrivial[0]["exponent"] == rep["torsion_order"] // 2


def test_act_subcommand(tmp_path, capsys):
    elem = smallelem_to_json(
        UnitMonomial.one(F),
        TorusPoint((UnitMonomial(-F.one(), 0),)),
        (0,),
    )
    path = tmp_path / "elem.json"
    path.write_text(json.dumps(elem))
    code, rep = run(["act", str(path), "builtin:jacobi2", "--order", "40"], capsys)
    assert code == 0
    assert rep["dim"] == 2
    mat = rep["matrix"]
    assert mat[0][1]["terms"] == [] and mat[1][0]["terms"] == []


def test_usage_error_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag,value", [("--window", "-1"), ("--order", "-3")])
def test_verify_negative_window_or_order_exits_two(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "E016", flag, value])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_bad_cyclotomic_order_exits_two(capsys):
    assert main(["--cyclotomic-order", "0", "verify", "E016"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "DIR"],
        ["theta", "DIR"],
        ["--out", "DIR", "verify", "E016"],
        # the failure report of a mathematical error, written to a directory
        ["--out", "DIR", "compose", "builtin:jacobi", "builtin:negated"],
    ],
    ids=["verify-input", "theta-input", "out", "out-of-a-failure"],
)
def test_a_directory_where_a_file_belongs_exits_two(args, tmp_path, capsys):
    assert main([str(tmp_path) if a == "DIR" else a for a in args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.strip().splitlines()) == 1
    assert str(tmp_path) in captured.err


_HEIS = {  # c e(g) x^* e(h)^-1 on the rank-1 torus
    "type": "heis",
    "c": {"m": 1, "coeff": ["1"], "uexp": 2},
    "x": [{"m": 1, "coeff": ["1"], "uexp": 4}],
    "g": [1],
    "h": [0],
}


_THETA = {"type": "builtin", "name": "theta_jacobi"}
_M5 = {"m": 5, "coeff": ["1", "0", "0", "0"], "uexp": 0}  # a monomial over Q(zeta_5)


_M3 = {"m": 3, "coeff": ["1", "0"], "uexp": 2}  # a monomial over Q(zeta_3)
_ONE = {"m": 1, "coeff": ["1"], "uexp": 0}
_ZERO = {"m": 1, "coeff": ["0"], "uexp": 0}  # no unit monomial


def _jacobi2_with(image=(), **fields):
    """builtin:jacobi2 as multiplier JSON, its generator image's fields
    updated by ``image`` and its top-level fields by ``fields``."""
    data = multiplier_to_json(builtin_multiplier("jacobi2", F))
    data["images"][0].update(image)
    data.update(fields)
    return json.dumps(data)


def _element(field=F, gamma=(0,)):
    """The element [1; (-1), gamma] of jacobi2's small group, over ``field``."""
    minus = UnitMonomial(-field.one(), 0)
    return json.dumps(smallelem_to_json(UnitMonomial.one(field), TorusPoint((minus,)), gamma))


def _theta_shift_spec(word=None, coeff=None, **fields):
    """theta_jacobi - theta_jacobi = 0 as a JSON spec, which passes as it
    stands; ``word`` and ``coeff`` (the first term's) and the top-level
    ``fields`` make it malformed."""
    first = {"word": [_THETA] if word is None else word}
    if coeff is not None:
        first["coeff"] = coeff
    spec = {
        "schema": 1,
        "param": {"m": 1, "rank": 1, "A": [[0]], "S": [[0]]},
        "window": 2,
        "order": 10,
        "terms": [first, {"coeff": {"m": 1, "coeff": ["-1"], "uexp": 0}, "word": [_THETA]}],
        **fields,
    }
    return json.dumps(spec)


def _exponent_spec(**param):
    """e(1, 0) - e(1, 0) = 0 on T_q as a JSON spec, which passes as it stands;
    ``param`` replaces fields of its torus."""
    word = [{"type": "exponent", "h": [1, 0]}]
    spec = {
        "schema": 1,
        "param": {"m": 1, "rank": 2, "A": [[0, 2], [-2, 0]], "S": [[0, 0], [0, 0]], **param},
        "window": 1,
        "order": 4,
        "terms": [{"word": word}, {"coeff": {**_ONE, "coeff": ["-1"]}, "word": word}],
    }
    return json.dumps(spec)


@pytest.mark.parametrize(
    "command,text",
    [
        (["verify"], "{not json"),
        (["verify"], json.dumps({"schema": 1, "terms": []})),
        (["theta"], json.dumps({"param": {"m": 1}})),
        (["compose", "builtin:jacobi"], "[1, 2"),
        (["act", "ELEM", "builtin:jacobi2"], json.dumps({"c": {"m": 1}})),
        pytest.param(
            ["verify"],
            _theta_shift_spec(word=[{"type": "builtin", "name": "theta_on_Tq_x"}]),
            id="unknown-builtin-series",
        ),
        pytest.param(
            ["verify"], _theta_shift_spec(word=[{"type": "theta"}]), id="unknown-word-type"
        ),
        # specs that would compare nothing, or act on nothing
        pytest.param(
            ["verify"], json.dumps({**json.loads(_theta_shift_spec()), "terms": []}), id="no-terms"
        ),
        pytest.param(["verify"], _theta_shift_spec(word=[]), id="empty-word"),
        pytest.param(
            ["verify"],
            _theta_shift_spec(word=[_THETA, _HEIS]),
            id="dangling-operator",
        ),
        # window and order are non-negative ints: no strings, nulls, floats,
        # bools or negatives (the --window and --order flags refuse those too)
        *(
            pytest.param(["verify"], _theta_shift_spec(**{key: value}), id=f"{key}-{value!r}")
            for key, value in [
                ("order", "40"),
                ("order", None),
                ("order", 40.5),
                ("order", -3),
                ("order", True),
                ("window", 2.5),
                ("window", -1),
            ]
        ),
        # every vector has the torus rank and every monomial the spec's field
        pytest.param(
            ["verify"], _theta_shift_spec(word=[{"type": "exponent", "h": [1, 0]}]), id="exponent-h-rank"
        ),
        pytest.param(["verify"], _theta_shift_spec(coeff=_M5), id="term-coeff-field"),
        pytest.param(
            ["verify"],
            _theta_shift_spec(word=[{"type": "exponent", "h": [1], "coeff": _M5}]),
            id="exponent-coeff-field",
        ),
        *(
            pytest.param(
                ["verify"],
                _theta_shift_spec(word=[{**_HEIS, key: value}, _THETA]),
                id=f"heis-{what}",
            )
            for what, key, value in [
                ("g-rank", "g", [1, 0]),
                ("h-rank", "h", []),
                ("x-rank", "x", [_HEIS["x"][0]] * 2),
                ("x-field", "x", [_M5]),
                ("c-field", "c", _M5),
            ]
        ),
        # a zero coefficient is no unit monomial
        pytest.param(["verify"], _theta_shift_spec(coeff=_ZERO), id="term-coeff-zero"),
        pytest.param(
            ["verify"],
            _theta_shift_spec(word=[{**_HEIS, "c": _ZERO}, _THETA]),
            id="heis-c-zero",
        ),
        # exact code reads ints and rational strings only: a float, bool or
        # string u-exponent, m, rank or matrix entry and a number for a
        # coefficient are refused, not truncated or passed on
        *(
            pytest.param(
                ["verify"], _theta_shift_spec(coeff={**_ONE, key: value}), id=f"coeff-{key}-{value!r}"
            )
            for key, value in [
                ("uexp", 0.5),
                ("uexp", "2"),
                ("uexp", True),
                ("coeff", [1]),
                ("coeff", [0.5]),
                ("m", 1.0),
            ]
        ),
        *(
            pytest.param(["verify"], _exponent_spec(**{key: value}), id=f"param-{key}-{value!r}")
            for key, value in [
                ("A", [[0, 1.9], [-1.9, 0]]),
                ("A", [[0, True], [-1, 0]]),
                ("S", [[0, 0], [0, 0.0]]),
                ("m", 1.0),
                ("rank", 2.0),
                ("rank", "2"),
            ]
        ),
        # multiplier and element JSON are read like specs: the param's field
        # and rank, and nonzero monomials
        pytest.param(["theta"], _jacobi2_with({"c": _M3}), id="multiplier-c-field"),
        pytest.param(["theta"], _jacobi2_with({"h_l": [2, 0]}), id="multiplier-h_l-rank"),
        pytest.param(["theta"], _jacobi2_with({"x": []}), id="multiplier-x-rank"),
        pytest.param(["theta"], _jacobi2_with({"c": _ZERO}), id="multiplier-c-zero"),
        # a rational string with a zero denominator is malformed, not a crash
        pytest.param(
            ["verify"], _theta_shift_spec(coeff={**_ONE, "coeff": ["1/0"]}), id="term-coeff-zero-denominator"
        ),
        pytest.param(
            ["theta"], _jacobi2_with({"c": {**_ONE, "coeff": ["1/0"]}}), id="multiplier-c-zero-denominator"
        ),
        pytest.param(
            ["act", "ELEM", "builtin:jacobi2"], _element(field=CycloField(3)), id="element-field"
        ),
        pytest.param(
            ["act", "ELEM", "builtin:jacobi2"], _element(gamma=(0, 0)), id="element-gamma-rank"
        ),
        # matrices of the wrong shape
        pytest.param(
            ["theta"],
            _jacobi2_with(sqrt=[[_HEIS["c"]] * 2]),
            id="multiplier-sqrt-shape",
        ),
        pytest.param(
            ["theta"],
            _jacobi2_with(param={"m": 1, "rank": 1, "A": [[0, 0]], "S": [[0]]}),
            id="multiplier-param-A-shape",
        ),
    ],
)
def test_malformed_input_file_exits_two(command, text, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(text)
    args = [str(path) if a == "ELEM" else a for a in command]
    if "ELEM" not in command:
        args.append(str(path))
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert "malformed input" in captured.err


@pytest.mark.parametrize("mode", ["product-identity", "operator_equation", None])
def test_a_spec_mode_key_is_ignored(mode, tmp_path, capsys):
    # a spec's kind of equation is no input: the JSON reader ignores a
    # ``mode`` key, as any key it does not know, and the spec passes
    path = tmp_path / "spec.json"
    path.write_text(_theta_shift_spec(mode=mode))
    assert main(["verify", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"


def test_exponent_spec_passes_as_it_stands(tmp_path, capsys):
    # the control for the malformed torus fields above
    path = tmp_path / "spec.json"
    path.write_text(_exponent_spec())
    assert main(["verify", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"


def test_a_builtin_on_another_torus_exits_two(tmp_path, capsys):
    # theta_jacobi lives on the rank-1 trivial torus: a spec over T_q that
    # names it is refused as input, not multiplied across tori
    spec = json.loads(_exponent_spec())
    spec["terms"][0]["word"] = [_THETA]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert "malformed input" in captured.err
    assert "builtin theta_jacobi lives on a different torus" in captured.err


def test_unknown_builtin_multiplier_exits_two(capsys):
    assert main(["theta", "builtin:nope"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert "'nope'" in captured.err


def test_verify_operator_mode_spec(tmp_path, capsys):
    # theta shift equation through the JSON vocabulary; its old ``mode`` key
    # is ignored
    spec = {
        "schema": 1,
        "identity": "custom-shift",
        "mode": "operator_equation",
        "param": {"m": 1, "rank": 1, "A": [[0]], "S": [[0]]},
        "window": 5,
        "order": 40,
        "terms": [
            {
                "word": [
                    {
                        "type": "heis",
                        "c": {"m": 1, "coeff": ["1"], "uexp": 2},
                        "x": [{"m": 1, "coeff": ["1"], "uexp": 4}],
                        "g": [1],
                        "h": [0],
                    },
                    {"type": "builtin", "name": "theta_jacobi"},
                ]
            },
            {
                "coeff": {"m": 1, "coeff": ["-1"], "uexp": 0},
                "word": [{"type": "builtin", "name": "theta_jacobi"}],
            },
        ],
    }
    path = tmp_path / "shift.json"
    path.write_text(json.dumps(spec))
    code, rep = run(["verify", str(path)], capsys)
    assert code == 0 and rep["status"] == "pass"


def test_cyclotomic_order_flag(capsys):
    # rational identities hold verbatim over larger cyclotomic fields
    code, rep = run(["--cyclotomic-order", "4", "verify", "E016"], capsys)
    assert code == 0 and rep["status"] == "pass"


def test_enumeration_cap_reported_as_resource_limit(tmp_path, capsys):
    # a three-factor braid word at a huge order certifies a box of a million
    # points: the CLI reports the resource limit, not a mathematical failure
    theta = [{"type": "builtin", "name": f"theta_on_Tq_{x}"} for x in "uvu"]
    spec = {
        "schema": 1,
        "identity": "braid-word",
        "mode": "product_identity",
        "param": {"m": 1, "rank": 2, "A": [[0, 2], [-2, 0]], "S": [[0, 0], [0, 0]]},
        "window": 0,
        "order": 10,
        "terms": [
            {"coeff": {"m": 1, "coeff": [c], "uexp": 0}, "word": theta}
            for c in ("1", "-1")
        ],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, rep = run(["verify", str(path)], capsys)
    assert code == 0 and rep["status"] == "pass"
    code, rep = run(["verify", str(path), "--order", str(10**12)], capsys)
    assert code == 1
    assert rep["status"] == "fail" and rep["error"] == "EnumerationLimit"
    assert "certified box too large" in rep["message"]
