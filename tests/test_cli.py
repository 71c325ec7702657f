import io
import json
import math

import numpy as np
import pytest

from mllp import catalog
from mllp.cimodels import CIStatement, model_spec
from mllp.cli import _emit, main
from mllp.mll import MLLSpec, lambda_vector
from mllp.tables import VarSet, marginalize

from conftest import (
    RELISTED_CYCLES,
    dirichlet_table,
    make_vars,
    outside_domain_values,
    relisted_cycle,
    underflow_case,
)
from oracles import chain_from_joint


def run(argv):
    buf = io.StringIO()
    rc = main(argv, out=buf)
    return rc, buf.getvalue()


def assert_domain_error(argv, capsys) -> str:
    """Exit 1 with an ``error:`` line and nothing on stdout; returns stderr."""
    rc, out = run(argv)
    assert (rc, out) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith("error:")
    return err


@pytest.fixture
def workdir(tmp_path, rng):
    spec = catalog.CHAIN_THREE
    table = dirichlet_table(spec.vars, rng)
    (tmp_path / "spec.txt").write_text(spec.to_text())
    (tmp_path / "spec.json").write_text(spec.to_json())
    (tmp_path / "table.json").write_text(table.to_json())
    vec = lambda_vector(table, spec)
    (tmp_path / "lam.json").write_text(
        json.dumps({"spec": spec.to_json_obj(), "values": list(map(float, vec.values))})
    )
    chain = chain_from_joint(table, [0b001, 0b110])
    (tmp_path / "chain.json").write_text(json.dumps(chain.to_json_obj()))
    (tmp_path / "ci.txt").write_text("\n".join(catalog.CI_LOOP_THREE) + "\n")
    return tmp_path, spec, table


class TestSubcommands:
    def test_classify(self, workdir):
        path, spec, _ = workdir
        rc, out = run(["classify", "--spec", str(path / "spec.txt")])
        assert rc == 0
        doc = json.loads(out)
        assert doc["verdict"] == "PROVEN_SMOOTH"
        assert doc["first_rule"] == "hierarchical"

    def test_classify_accepts_json_spec(self, workdir):
        path, _, _ = workdir
        rc, out = run(["classify", "--spec", str(path / "spec.json")])
        assert rc == 0

    def test_classify_relocation_cycle_terminates(self, tmp_path):
        spec = tmp_path / "cycle.txt"
        spec.write_text(
            "3: 3\n34: 4\n14: 1 14\n1234: 2 12 13 23 24 34 123 124 134 234 1234\n"
        )
        rc, out = run(["classify", "--spec", str(spec)])
        assert rc == 0
        assert json.loads(out)["verdict"] == "UNKNOWN"

    @pytest.mark.parametrize("text, specs, states", [
        ("14: 1\n12: 2\n4: 4\n1234: 12 3 13 23 123 14 24 124 34 134 234 1234\n", 9, 17),
        ("12: 1\n34: 4\n24: 24\n1234: 2 12 3 13 23 123 14 124 34 134 234 1234\n", 8, 16),
    ])
    def test_classify_former_hangs_end_unknown(self, tmp_path, text, specs, states):
        spec = tmp_path / "spec.txt"
        spec.write_text(text)
        rc, out = run(["classify", "--spec", str(spec)])
        assert rc == 0
        doc = json.loads(out)
        assert doc["verdict"] == "UNKNOWN"
        # an exhausted search asks every rule about every state it reaches;
        # only reductions fire, on the states below (by expanded count)
        fired = {9: {"variable_removal": 16, "contraction_reduce": 15},
                 8: {"contraction_reduce": 15}}[specs]
        rules = ["hierarchical", "two_margin", "variable_removal", "slice_split",
                 "single_feedback", "cyclic", "contraction_reduce"]
        assert doc["search"] == {
            "specs_expanded": specs, "closure_states": states, "closures_truncated": 0,
            "exhausted": True,
            "evaluated": {r: specs if i < 2 else states for i, r in enumerate(rules)},
            "fired": {**dict.fromkeys(rules, 0), **fired},
        }

    def test_enumerate(self, workdir):
        rc, out = run(["enumerate", "--vars", "3", "--orbits"])
        doc = json.loads(out)
        assert rc == 0
        assert doc["labeled_complete"] == 512
        assert doc["orbit_count"] == 104
        assert len(doc["orbit_representatives"]) == 104

    def test_census_keys(self, workdir):
        rc, out = run(["census", "--vars", "3"])
        doc = json.loads(out)
        assert rc == 0
        assert doc["complete_orbits"] == 104
        assert doc["hierarchical_orbits"] == 23
        assert doc["two_margin_extra"] == 4

    def test_census_csv(self, workdir):
        rc, out = run(["census", "--vars", "3", "--csv"])
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("orbit,")
        assert len(lines) == 105

    def test_forward_and_invert_roundtrip(self, workdir, tmp_path):
        path, spec, table = workdir
        rc, out = run(
            ["forward", "--table", str(path / "table.json"), "--spec",
             str(path / "spec.txt")]
        )
        assert rc == 0
        (tmp_path / "fwd.json").write_text(out)
        rc, out = run(["invert", "--lambda", str(tmp_path / "fwd.json"), "--trace"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["method_used"] == "hierarchical"
        assert max(
            abs(a - b) for a, b in zip(doc["table"]["p"], table.p)
        ) < 1e-8

    def test_invert_with_zero_values(self, workdir, tmp_path):
        path, spec, _ = workdir
        (tmp_path / "zero.json").write_text(
            json.dumps({"spec": spec.to_json_obj(), "values": [0.0] * len(spec)})
        )
        rc, out = run(["invert", "--lambda", str(tmp_path / "zero.json")])
        assert rc == 0
        doc = json.loads(out)
        assert np.allclose(doc["table"]["p"], 1 / 8, atol=1e-9)

    def test_jacobian_with_fd_check(self, workdir):
        path, _, _ = workdir
        rc, out = run(
            ["jacobian", "--table", str(path / "table.json"), "--spec",
             str(path / "spec.txt"), "--check-fd"]
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["fd_max_rel_error"] < 1e-6
        assert len(doc["matrix"]) == 7

    def test_smooth_test(self, workdir):
        path, _, _ = workdir
        rc, out = run(
            ["smooth-test", "--spec", str(path / "spec.txt"), "--samples", "10",
             "--seed", "4"]
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["min_singular_value"] > 1e-8
        assert len(doc["per_sample_min"]) == 10

    def test_smooth_test_detects_repeated_effect(self, tmp_path):
        (tmp_path / "rep.txt").write_text(catalog.REPEATED_EFFECT.to_text())
        rc, out = run(
            ["smooth-test", "--spec", str(tmp_path / "rep.txt"), "--samples", "3",
             "--seed", "0"]
        )
        assert rc == 0
        # rank deficiency is generic for this collection away from uniform
        # as well once the repeated rows collide; the uniform-point check
        # lives in the acceptance suite
        doc = json.loads(out)
        assert doc["min_singular_value"] >= 0

    def test_markov(self, workdir, tmp_path):
        path, _, table = workdir
        rc, out = run(["markov", "--chain", str(path / "chain.json")])
        assert rc == 0
        doc = json.loads(out)
        assert doc["invariance_residual"] < 1e-10
        want = marginalize(table, 0b001)
        assert np.allclose(doc["stationary"], want.p, atol=1e-10)

    @pytest.mark.parametrize("case", sorted(RELISTED_CYCLES))
    def test_markov_reads_conditionals_by_their_names(self, tmp_path, case):
        t, chain = relisted_cycle(case, np.random.default_rng(2502))
        (tmp_path / "chain.json").write_text(json.dumps(chain.to_json_obj()))
        rc, out = run(["markov", "--chain", str(tmp_path / "chain.json")])
        assert rc == 0
        doc = json.loads(out)
        want = marginalize(t, chain.blocks[0]).p
        assert float(np.max(np.abs(np.array(doc["stationary"]) - want))) < 1e-12
        assert doc["invariance_residual"] < 1e-12

    def test_model(self, workdir, tmp_path):
        path, _, _ = workdir
        rc, out = run(["model", "--ci", str(path / "ci.txt")])
        assert rc == 0
        doc = json.loads(out)
        assert len(doc["zero_pairs"]) == 6
        assert doc["embedding"] is not None

    @pytest.mark.parametrize("name, text", [
        # a zero margin that lacks a variable v must not be copied onto the
        # effects with v
        ("ci.txt", "2 _||_ 3\n1 _||_ 4\n"),
        ("ci.json", json.dumps({"variables": ["1", "2", "3"],
                                "statements": [{"a": ["2"], "b": ["3"]}]})),
    ], ids=["text", "json"])
    def test_model_embeds_zero_margins_without_a_variable(self, tmp_path, name, text):
        (tmp_path / name).write_text(text)
        rc, out = run(["model", "--ci", str(tmp_path / name)])
        assert rc == 0
        doc = json.loads(out)
        assert MLLSpec.from_json_obj(doc["embedding"]).is_complete()

    def test_model_text_reads_names_longer_than_one_character(self, tmp_path):
        # the names are the statement's tokens, not its characters
        (tmp_path / "ci.txt").write_text("10 _||_ 2\nx1, 2 _||_ y | 10\n")
        rc, out = run(["model", "--ci", str(tmp_path / "ci.txt")])
        assert rc == 0
        doc = json.loads(out)
        assert doc["statements"] == ["10 _||_ 2", "2,x1 _||_ y | 10"]
        assert doc["embedding"]["variables"] == ["10", "2", "x1", "y"]

    def test_model_member(self, workdir, tmp_path):
        path, _, _ = workdir
        rc, out = run(["model", "--ci", str(path / "ci.txt")])
        doc = json.loads(out)
        emb = doc["embedding"]
        zero = {(tuple(z["effect"]), tuple(z["margin"])) for z in doc["zero_pairs"]}
        free = [
            {"effect": p["effect"], "margin": p["margin"], "value": 0.25}
            for p in emb["pairs"]
            if (tuple(p["effect"]), tuple(p["margin"])) not in zero
        ]
        (tmp_path / "free.json").write_text(json.dumps(free))
        rc, out = run(
            ["model", "--ci", str(path / "ci.txt"), "--member",
             str(tmp_path / "free.json")]
        )
        assert rc == 0
        doc = json.loads(out)
        assert abs(sum(doc["member"]["p"]) - 1) < 1e-9


_FOUR_VAR_SPEC = "123: 1 2 12 3 13 23 123\n1234: 4 14 24 124 34 134 234 1234\n"

# Malformed cycle files for `markov`, each made from a valid one.
_BAD_CHAINS = {
    "top-level-list": lambda c: [c],
    "variables-5": lambda c: {**c, "variables": 5},
    "conditionals-object": lambda c: {
        **c, "conditionals": dict(enumerate(c["conditionals"]))
    },
    "values-x": lambda c: {
        **c,
        "conditionals": [{**c["conditionals"][0], "values": "x"}, *c["conditionals"][1:]],
    },
    # a string of names is not read as its characters
    "block-string": lambda c: {**c, "blocks": [c["blocks"][0], "".join(c["blocks"][1])]},
    "target-string": lambda c: {
        **c,
        "conditionals": [
            {**c["conditionals"][0], "target": "".join(c["conditionals"][0]["target"])},
            *c["conditionals"][1:],
        ],
    },
    # a repeated name, with a row per packed index: read by its names, the
    # kernel would skip the rows whose two copies disagree
    "target-repeated": lambda c: {
        **c,
        "conditionals": [
            c["conditionals"][0],
            {**c["conditionals"][1], "target": c["conditionals"][1]["target"] * 2,
             "values": [[0.5 * v for v in c["conditionals"][1]["values"][0]]] * 2
             + [[f * v for v in c["conditionals"][1]["values"][1]] for f in (0.25, 0.75)]},
        ],
    },
    "given-string": lambda c: {
        **c,
        "conditionals": [
            c["conditionals"][0],
            {**c["conditionals"][1], "given": "".join(c["conditionals"][1]["given"])},
        ],
    },
}


class TestExitCodes:
    def test_missing_file_is_domain_error(self):
        rc, _ = run(["classify", "--spec", "/nonexistent/spec.txt"])
        assert rc == 1

    def test_bad_table_is_domain_error(self, tmp_path):
        (tmp_path / "bad.json").write_text('{"variables": ["1"], "p": [2.0, -1.0]}')
        (tmp_path / "spec.txt").write_text("1: 1\n")
        rc, _ = run(
            ["forward", "--table", str(tmp_path / "bad.json"), "--spec",
             str(tmp_path / "spec.txt")]
        )
        assert rc == 1

    def test_solver_failure_is_exit_two(self, tmp_path):
        spec = catalog.OPEN_FOUR_MARGIN
        # an extreme target the fixed point and Newton both reject
        values = [40.0] * len(spec)
        (tmp_path / "lam.json").write_text(
            json.dumps({"spec": spec.to_json_obj(), "values": values})
        )
        rc, _ = run(
            ["invert", "--lambda", str(tmp_path / "lam.json"), "--max-iter", "50"]
        )
        assert rc == 2

    def test_nan_tol_is_domain_error(self, tmp_path, rng):
        spec = catalog.OPEN_FOUR_MARGIN
        table = dirichlet_table(spec.vars, rng)
        values = [float(v) for v in lambda_vector(table, spec).values]
        (tmp_path / "lam.json").write_text(
            json.dumps({"spec": spec.to_json_obj(), "values": values})
        )
        rc, _ = run(["invert", "--lambda", str(tmp_path / "lam.json"), "--tol", "nan"])
        assert rc == 1

    @pytest.mark.filterwarnings("error")
    def test_underflow_case_exits_zero_or_two(self, tmp_path):
        # the table within 1e-8 (exit 0) or a solver failure (exit 2), never
        # a domain error (exit 1)
        spec, table = underflow_case()
        values = [float(v) for v in lambda_vector(table, spec).values]
        (tmp_path / "lam.json").write_text(
            json.dumps({"spec": spec.to_json_obj(), "values": values})
        )
        rc, out = run(["invert", "--lambda", str(tmp_path / "lam.json")])
        assert rc in (0, 2)
        if rc == 0:
            got = np.array(json.loads(out)["table"]["p"])
            assert float(np.max(np.abs(got - table.p))) <= 1e-8

    @pytest.mark.parametrize(
        "args",
        [["--vars", "12"], ["--vars", "0"], ["--vars", "-1"], ["--vars", "8", "--orbits"]],
        ids=["vars-12", "vars-0", "vars-minus-1", "orbits-8"],
    )
    def test_enumerate_out_of_range_is_domain_error(self, capsys, args):
        rc, out = run(["enumerate", *args])
        assert rc == 1
        assert out == ""
        assert capsys.readouterr().err.startswith("error:")

    def test_enumerate_largest_count(self):
        rc, out = run(["enumerate", "--vars", "11"])
        assert rc == 0
        assert json.loads(out)["labeled_complete"] == 2 ** (11 * 1023)

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_smooth_test_without_samples_is_domain_error(self, workdir, capsys, samples):
        path, _, _ = workdir
        spec = str(path / "spec.txt")
        rc, out = run(["smooth-test", "--spec", spec, "--samples", samples])
        assert rc == 1
        assert out == ""
        assert capsys.readouterr().err.startswith("error:")

    def test_smooth_test_negative_seed_is_domain_error(self, workdir, capsys):
        path, _, _ = workdir
        spec = str(path / "spec.txt")
        err = assert_domain_error(["smooth-test", "--spec", spec, "--seed", "-1"], capsys)
        assert "--seed" in err

    @pytest.mark.parametrize(
        "table_vars, spec_text, extra",
        [
            ("1234", "12: 1 2 12\n23: 3 23\n123: 13 123\n", []),
            ("123", _FOUR_VAR_SPEC, []),
            ("xyz", "ab: a b ab\nbc: c bc\nabc: ac abc\n", []),
            ("123", _FOUR_VAR_SPEC, ["--check-fd"]),
        ],
        ids=["table-4-spec-3", "table-3-spec-4", "other-names", "check-fd"],
    )
    def test_jacobian_variable_mismatch_is_domain_error(
        self, tmp_path, rng, capsys, table_vars, spec_text, extra
    ):
        table = dirichlet_table(VarSet(tuple(table_vars)), rng)
        (tmp_path / "table.json").write_text(table.to_json())
        (tmp_path / "spec.txt").write_text(spec_text)
        rc, out = run(
            ["jacobian", "--table", str(tmp_path / "table.json"), "--spec",
             str(tmp_path / "spec.txt"), *extra]
        )
        assert rc == 1
        assert out == ""
        assert capsys.readouterr().err.startswith("error:")

    def test_emit_writes_nothing_it_cannot_serialise(self):
        buf = io.StringIO()
        with pytest.raises(ValueError):
            _emit({"count": 10**5000}, buf)
        assert buf.getvalue() == ""

    @pytest.mark.parametrize("flag", ["--damping", "--bogus"])
    def test_usage_error_is_domain_error(self, workdir, flag):
        path, _, _ = workdir
        rc, _ = run(["invert", "--lambda", str(path / "lam.json"), flag, "0.5"])
        assert rc == 1

    def test_help_exits_zero(self, capsys):
        rc, _ = run(["invert", "--help"])
        assert rc == 0
        assert "--lambda" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "name, value, at",
        [
            ("CHAIN_THREE", math.nan, -1),
            ("CYCLE_THREE", math.nan, -1),
            ("PAIRED_SLICES", math.nan, -1),
            ("SINGLETON_FEEDERS", math.nan, -1),
            ("TWO_BLOCK_FIXPOINT", math.nan, -1),
            ("NESTED_SKIP", math.nan, 0),
            ("CHAIN_THREE", math.inf, -1),
            ("CHAIN_THREE", -math.inf, 0),
        ],
    )
    def test_nonfinite_lambda_is_domain_error(self, tmp_path, capsys, name, value, at):
        spec = getattr(catalog, name)
        values = [0.0] * len(spec)
        values[at] = value  # json writes the bare NaN / Infinity that it reads back
        (tmp_path / "lam.json").write_text(
            json.dumps({"spec": spec.to_json_obj(), "values": values})
        )
        assert_domain_error(["invert", "--lambda", str(tmp_path / "lam.json")], capsys)

    @pytest.mark.parametrize(
        "case",
        ["value-x", "spec-variables-5", "spec-variables-string",
         "spec-margin-string", "spec-effect-string"],
    )
    def test_malformed_lambda_is_domain_error(self, workdir, capsys, case):
        path, _, _ = workdir
        doc = json.loads((path / "lam.json").read_text())
        pair = doc["spec"]["pairs"][0]
        # a string is not read as its characters
        if case == "value-x":
            doc["values"][0] = "x"
        elif case == "spec-variables-5":
            doc["spec"]["variables"] = 5
        elif case == "spec-variables-string":
            doc["spec"]["variables"] = "123"
        elif case == "spec-margin-string":
            pair["margin"] = "".join(pair["margin"])
        else:
            pair["effect"] = "".join(pair["effect"])
        (path / "lam.json").write_text(json.dumps(doc))
        assert_domain_error(["invert", "--lambda", str(path / "lam.json")], capsys)

    def test_non_numeric_table_is_domain_error(self, workdir, capsys):
        path, _, _ = workdir
        (path / "table.json").write_text('{"variables": ["1", "2", "3"], "p": "x"}')
        assert_domain_error(
            ["forward", "--table", str(path / "table.json"), "--spec",
             str(path / "spec.txt")],
            capsys,
        )

    def test_table_variables_string_is_domain_error(self, workdir, capsys):
        # a string is not read as its characters
        path, _, table = workdir
        doc = {"variables": "123", "p": [float(x) for x in table.p]}
        (path / "table.json").write_text(json.dumps(doc))
        assert_domain_error(
            ["forward", "--table", str(path / "table.json"), "--spec",
             str(path / "spec.txt")],
            capsys,
        )

    @pytest.mark.parametrize(
        "value", [math.nan, "x", True], ids=["nan", "x", "true"]
    )
    def test_bad_member_value_is_domain_error(self, workdir, capsys, value):
        path, _, _ = workdir
        vs = make_vars(4)
        ms = model_spec([CIStatement.from_text(vs, s) for s in catalog.CI_LOOP_THREE])
        # the last free pair: a NaN there reached the solvers and exited 2
        last = len(ms.free_pairs) - 1
        free = [
            {"effect": list(vs.names_of(e)), "margin": list(vs.names_of(m)),
             "value": value if i == last else 0.25}
            for i, (e, m) in enumerate(ms.free_pairs)
        ]
        (path / "free.json").write_text(json.dumps(free))
        assert_domain_error(
            ["model", "--ci", str(path / "ci.txt"), "--member", str(path / "free.json")],
            capsys,
        )

    @pytest.mark.parametrize("field", ["effect", "margin"])
    def test_member_names_string_is_domain_error(self, workdir, capsys, field):
        # a string is not read as its characters
        path, _, _ = workdir
        vs = make_vars(4)
        ms = model_spec([CIStatement.from_text(vs, s) for s in catalog.CI_LOOP_THREE])
        free = [
            {"effect": list(vs.names_of(e)), "margin": list(vs.names_of(m)),
             "value": 0.25}
            for e, m in ms.free_pairs
        ]
        free[-1][field] = "".join(free[-1][field])
        (path / "free.json").write_text(json.dumps(free))
        assert_domain_error(
            ["model", "--ci", str(path / "ci.txt"), "--member", str(path / "free.json")],
            capsys,
        )

    @pytest.mark.parametrize("case", sorted(_BAD_CHAINS))
    def test_malformed_chain_is_domain_error(self, workdir, capsys, case):
        path, _, _ = workdir
        chain = json.loads((path / "chain.json").read_text())
        (path / "chain.json").write_text(json.dumps(_BAD_CHAINS[case](chain)))
        assert_domain_error(["markov", "--chain", str(path / "chain.json")], capsys)

    @pytest.mark.parametrize(
        "doc",
        [
            {"variables": 5, "statements": []},
            {"variables": ["1", "2", "3"], "statements": 5},
            {"variables": ["1", "2", "3"], "statements": [5]},
            {"variables": "123", "statements": [{"a": ["1"], "b": ["2"]}]},
            # a string is not read as its characters
            {"variables": ["1", "2", "3"], "statements": [{"a": "1", "b": ["2"]}]},
            {"variables": ["1", "2", "3"], "statements": [{"a": ["1"], "b": "23"}]},
            {"variables": ["1", "2", "3"],
             "statements": [{"a": ["1"], "b": ["2"], "c": "3"}]},
        ],
        ids=["variables-5", "statements-5", "statement-5", "variables-string",
             "a-string", "b-string", "c-string"],
    )
    def test_malformed_statements_is_domain_error(self, tmp_path, capsys, doc):
        (tmp_path / "ci.json").write_text(json.dumps(doc))
        assert_domain_error(["model", "--ci", str(tmp_path / "ci.json")], capsys)

    @pytest.mark.parametrize(
        "kind", ["table", "spec", "spec-pair", "cycle", "cycle-target", "statements"]
    )
    def test_numeric_variable_names_are_refused(self, workdir, capsys, kind):
        # names are string labels; a number was read as its string in a
        # variable list but looked up as given everywhere else
        path, _, table = workdir
        chain = json.loads((path / "chain.json").read_text())
        first = chain["conditionals"][0]
        docs = {
            "table": {"variables": [1, 2, 3], "p": [float(x) for x in table.p]},
            "spec": {"variables": [1, 2], "pairs": [{"margin": [1], "effect": [1]}]},
            "spec-pair": {"variables": ["1", "2"],
                          "pairs": [{"margin": [1], "effect": ["1"]}]},
            "cycle": {**chain, "variables": [1, 2, 3]},
            "cycle-target": {**chain, "conditionals": [
                {**first, "target": [int(x) for x in first["target"]]},
                *chain["conditionals"][1:]]},
            "statements": {"variables": [1, 2, 3],
                           "statements": [{"a": [1], "b": [2]}]},
        }
        (path / "doc.json").write_text(json.dumps(docs[kind]))
        doc = str(path / "doc.json")
        argv = {
            "table": ["forward", "--table", doc, "--spec", str(path / "spec.txt")],
            "spec": ["classify", "--spec", doc],
            "spec-pair": ["forward", "--spec", doc, "--table", str(path / "table.json")],
            "cycle": ["markov", "--chain", doc],
            "cycle-target": ["markov", "--chain", doc],
            "statements": ["model", "--ci", doc],
        }[kind]
        assert "variable names must be strings" in assert_domain_error(argv, capsys)

    @pytest.mark.parametrize("command", ["classify", "forward"])
    @pytest.mark.parametrize(
        "pair, cut, named",
        [
            ({"margin": ["1", "3"], "effect": ["1"]}, 0, "unknown variable '3'"),
            ({"margin": ["1"], "effect": ["2"]}, 0, "is not contained in margin"),
            ({"margin": ["1"], "effect": ["1"]}, 2, "invalid spec JSON"),
            ({"margin": "12", "effect": ["1"]}, 0, "list of variable names"),
            ({"margin": ["1", "2"], "effect": "1"}, 0, "list of variable names"),
        ],
        ids=["unknown-variable", "effect-outside-margin", "truncated",
             "margin-string", "effect-string"],
    )
    def test_bad_json_spec_is_named(self, workdir, capsys, command, pair, cut, named):
        # a JSON spec is never re-read as text, whose parser would take
        # the JSON punctuation for variable labels
        path, _, _ = workdir
        text = json.dumps({"variables": ["1", "2"], "pairs": [pair]})
        (path / "bad.json").write_text(text[:len(text) - cut])
        argv = [command, "--spec", str(path / "bad.json")]
        if command == "forward":
            argv += ["--table", str(path / "table.json")]
        assert named in assert_domain_error(argv, capsys)

    def test_member_outside_domain_is_exit_two(self, workdir):
        path, _, _ = workdir
        vs = make_vars(4)
        ms = model_spec([CIStatement.from_text(vs, s) for s in catalog.CI_LOOP_THREE])
        free = [
            {"effect": list(vs.names_of(e)), "margin": list(vs.names_of(m)),
             "value": v}
            for (e, m), v in zip(ms.free_pairs, outside_domain_values())
        ]
        (path / "free.json").write_text(json.dumps(free))
        rc, _ = run(
            ["model", "--ci", str(path / "ci.txt"), "--member", str(path / "free.json")]
        )
        assert rc == 2


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name, pair, value", [
        ("CHAIN_THREE", ("1", "12"), 50.0),  # a chain margin below the floor
        ("PAIRED_SLICES", ("1", "123"), 1000.0),  # exp(1000) would overflow
    ])
    def test_out_of_domain_target_is_exit_two(self, tmp_path, capsys, name, pair, value):
        spec = getattr(catalog, name)
        values = [0.0] * len(spec)
        values[spec.pairs.index(tuple(map(spec.vars.mask, pair)))] = value
        (tmp_path / "lam.json").write_text(
            json.dumps({"spec": spec.to_json_obj(), "values": values})
        )
        assert run(["invert", "--lambda", str(tmp_path / "lam.json")]) == (2, "")
        assert capsys.readouterr().err.startswith("solver failure:")

    def test_member_below_the_floor_is_exit_two(self, workdir, capsys):
        path, _, _ = workdir
        free = [{"effect": ["1"], "margin": ["1", "2", "3"], "value": 60.0}]
        (path / "free.json").write_text(json.dumps(free))
        argv = ["model", "--ci", str(path / "ci.txt"), "--member", str(path / "free.json")]
        assert run(argv) == (2, "")
        assert capsys.readouterr().err.startswith("solver failure:")

class TestDeterminism:
    def test_census_byte_identical(self):
        _, out1 = run(["census", "--vars", "3", "--rows"])
        _, out2 = run(["census", "--vars", "3", "--rows"])
        assert out1 == out2

    def test_smooth_test_byte_identical(self, workdir):
        path, _, _ = workdir
        args = ["smooth-test", "--spec", str(path / "spec.txt"), "--samples", "5",
                "--seed", "11"]
        _, out1 = run(args)
        _, out2 = run(args)
        assert out1 == out2
