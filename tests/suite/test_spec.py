"""Suite spec parsing, validation, and matrix expansion."""

import json

import pytest

from repro.suite import CaseSpec, SuiteSpecError, load_suite, parse_suite


class TestCaseSpec:
    def test_defaults(self):
        case = CaseSpec(name="c")
        assert case.machine == "e5649"
        assert case.sampling == "grid"
        assert case.seed == 2015
        assert case.model_kinds == ("linear", "neural")

    def test_bad_name(self):
        with pytest.raises(SuiteSpecError, match="bad case name"):
            CaseSpec(name="no spaces")

    def test_bad_sampling(self):
        with pytest.raises(SuiteSpecError, match="sampling must be"):
            CaseSpec(name="c", sampling="stratified")

    def test_random_needs_budget(self):
        with pytest.raises(SuiteSpecError, match="positive 'budget'"):
            CaseSpec(name="c", sampling="random")

    def test_grid_rejects_budget(self):
        with pytest.raises(SuiteSpecError, match="only applies"):
            CaseSpec(name="c", budget=5)

    def test_bad_count(self):
        with pytest.raises(SuiteSpecError, match="counts must be"):
            CaseSpec(name="c", counts=(0,))

    def test_repeated_count(self):
        with pytest.raises(SuiteSpecError, match="only once, got \\[3, 1, 3\\]"):
            CaseSpec(name="c", counts=(3, 1, 3))
        assert CaseSpec(name="c", counts=(3, 1)).counts == (3, 1)

    @pytest.mark.parametrize(
        ("field", "values"),
        [
            ("targets", ("cg", "sp", "cg")),
            ("co_apps", ("ep", "ep")),
            ("frequencies_ghz", (2.53, 1.6, 2.53)),
        ],
    )
    def test_repeated_value(self, field, values):
        with pytest.raises(
            SuiteSpecError, match=f"each of {field} may appear only once"
        ):
            CaseSpec(name="c", **{field: values})
        distinct = tuple(dict.fromkeys(values))
        assert getattr(CaseSpec(name="c", **{field: distinct}), field) == distinct

    def test_catalog_rejects_unknown_machine(self):
        case = CaseSpec(name="c", machine="i9")
        with pytest.raises(SuiteSpecError, match="unknown processor"):
            case.validate_catalog()

    def test_catalog_rejects_unknown_app(self):
        case = CaseSpec(name="c", targets=("doom",))
        with pytest.raises(SuiteSpecError, match="unknown application"):
            case.validate_catalog()

    def test_catalog_rejects_unknown_kind(self):
        case = CaseSpec(name="c", model_kinds=("forest",))
        with pytest.raises(SuiteSpecError, match="unknown model kind"):
            case.validate_catalog()

    def test_catalog_rejects_unknown_feature_set(self):
        case = CaseSpec(name="c", feature_sets=("Z",))
        with pytest.raises(SuiteSpecError, match="unknown feature set"):
            case.validate_catalog()

    def test_collect_spec_is_canonical(self):
        case = CaseSpec(name="c", counts=(1, 2), frequencies_ghz=(2.53,))
        spec = case.collect_spec()
        assert spec["counts"] == [1, 2]
        assert spec["seed"] == 2015
        assert "budget" not in spec
        spec2 = CaseSpec(
            name="c", counts=(1, 2), frequencies_ghz=(2.53,)
        ).collect_spec()
        assert json.dumps(spec) == json.dumps(spec2)


class TestParseSuite:
    def test_minimal(self):
        suite = parse_suite(
            {"suite": "s", "cases": [{"name": "a", "targets": ["cg"]}]}
        )
        assert suite.name == "s"
        assert suite.case("a").targets == ("cg",)

    def test_defaults_merge_and_override(self):
        suite = parse_suite(
            {
                "suite": "s",
                "defaults": {"seed": 9, "machine": "e5-2697v2"},
                "cases": [
                    {"name": "a"},
                    {"name": "b", "seed": 1},
                ],
            }
        )
        assert suite.case("a").seed == 9
        assert suite.case("a").machine == "e5-2697v2"
        assert suite.case("b").seed == 1

    def test_duplicate_names_rejected(self):
        with pytest.raises(SuiteSpecError, match="two cases named"):
            parse_suite(
                {"suite": "s", "cases": [{"name": "a"}, {"name": "a"}]}
            )

    def test_unknown_field_rejected(self):
        with pytest.raises(SuiteSpecError, match="unknown field"):
            parse_suite(
                {"suite": "s", "cases": [{"name": "a", "color": "red"}]}
            )

    def test_unknown_default_rejected(self):
        with pytest.raises(SuiteSpecError, match="unknown default field"):
            parse_suite(
                {"suite": "s", "defaults": {"frob": 1}, "cases": [{"name": "a"}]}
            )

    def test_needs_cases(self):
        with pytest.raises(SuiteSpecError, match="non-empty 'cases'"):
            parse_suite({"suite": "s", "cases": []})

    def test_case_lookup_unknown(self):
        suite = parse_suite({"suite": "s", "cases": [{"name": "a"}]})
        with pytest.raises(SuiteSpecError, match="no case 'z'"):
            suite.case("z")


class TestMatrixExpansion:
    def test_cross_product(self):
        suite = parse_suite(
            {
                "suite": "s",
                "cases": [
                    {
                        "name": "m-{machine}-s{seed}",
                        "matrix": {
                            "machine": ["e5649", "e5-2697v2"],
                            "seed": [1, 2],
                        },
                    }
                ],
            }
        )
        names = [c.name for c in suite.cases]
        assert len(names) == 4
        assert "m-e5649-s1" in names and "m-e5-2697v2-s2" in names

    def test_expansion_order_is_deterministic(self):
        doc = {
            "suite": "s",
            "cases": [
                {"name": "c-{seed}", "matrix": {"seed": [3, 1, 2]}}
            ],
        }
        names = [c.name for c in parse_suite(doc).cases]
        # Values keep their listed order.
        assert names == ["c-3", "c-1", "c-2"]

    def test_auto_suffix_without_placeholder(self):
        suite = parse_suite(
            {
                "suite": "s",
                "cases": [{"name": "c", "matrix": {"seed": [1, 2]}}],
            }
        )
        assert [c.name for c in suite.cases] == ["c-1", "c-2"]

    def test_matrix_values_override_defaults(self):
        suite = parse_suite(
            {
                "suite": "s",
                "defaults": {"seed": 99},
                "cases": [
                    {"name": "c-{seed}", "matrix": {"seed": [1]}}
                ],
            }
        )
        assert suite.case("c-1").seed == 1

    def test_matrix_rejects_unknown_param(self):
        with pytest.raises(SuiteSpecError, match="not a case field"):
            parse_suite(
                {
                    "suite": "s",
                    "cases": [{"name": "c", "matrix": {"frob": [1]}}],
                }
            )

    def test_matrix_rejects_empty_values(self):
        with pytest.raises(SuiteSpecError, match="non-empty list"):
            parse_suite(
                {
                    "suite": "s",
                    "cases": [{"name": "c", "matrix": {"seed": []}}],
                }
            )


class TestLoadSuite:
    def test_json_file(self, tmp_path):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps({"suite": "s", "cases": [{"name": "a"}]}))
        assert load_suite(path).name == "s"

    def test_toml_file(self, tmp_path):
        path = tmp_path / "suite.toml"
        path.write_text(
            'suite = "s"\n\n[[cases]]\nname = "a"\ntargets = ["cg"]\n'
        )
        suite = load_suite(path)
        assert suite.case("a").targets == ("cg",)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SuiteSpecError, match="cannot read"):
            load_suite(tmp_path / "nope.json")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "suite.json"
        path.write_text("{nope")
        with pytest.raises(SuiteSpecError, match="not valid JSON"):
            load_suite(path)

    def test_bad_toml(self, tmp_path):
        path = tmp_path / "suite.toml"
        path.write_text("= nope")
        with pytest.raises(SuiteSpecError, match="not valid TOML"):
            load_suite(path)
