"""Declarative experiment-suite specifications.

A suite spec is a JSON or TOML file naming the *cases* of an experiment
sweep — which machine, which targets and co-apps, which co-location
counts and P-states, which models to fit and evaluate, under which seed.
The file is data, not code: touching one case's parameters changes that
case's content-addressed input key (:mod:`repro.suite.dag`) and nothing
else, which is what makes suite runs incremental.

File shape (JSON shown; TOML is isomorphic with ``[[cases]]`` tables)::

    {
      "suite": "mpe-sweep",
      "defaults": {"machine": "e5649", "repetitions": 5},
      "cases": [
        {"name": "base", "targets": ["cg", "sp"], "counts": [1, 2]},
        {"name": "m-{machine}",
         "matrix": {"machine": ["e5649", "e5-2697v2"]}}
      ]
    }

``defaults`` seeds every case; a case's own fields override it.  A case
with a ``matrix`` mapping expands into the cross product of the listed
values (deterministic order: parameters sorted by name, values in listed
order), with ``{param}`` placeholders substituted into the case name.

Every expanded case is validated into a frozen :class:`CaseSpec` —
unknown machines, applications, feature sets, and model kinds are
rejected at load time with the offending case named, long before any
engine runs.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, field, fields
from pathlib import Path

__all__ = ["CaseSpec", "SuiteSpec", "SuiteSpecError", "load_suite", "parse_suite"]

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._@-]*$")

#: Case fields a spec file may set (everything except the derived name).
_CASE_FIELDS = {
    "machine",
    "sampling",
    "budget",
    "targets",
    "co_apps",
    "counts",
    "frequencies_ghz",
    "seed",
    "model_kinds",
    "feature_sets",
    "repetitions",
}


class SuiteSpecError(ValueError):
    """A suite spec file is malformed or names unknown entities."""


@dataclass(frozen=True)
class CaseSpec:
    """One validated, fully-expanded experiment case.

    Empty ``targets`` / ``co_apps`` / ``counts`` / ``frequencies_ghz``
    mean "the collection defaults": all eleven Table III targets, the
    four training co-apps, the machine's Table V counts, and the full
    P-state ladder respectively.
    """

    name: str
    machine: str = "e5649"
    sampling: str = "grid"
    budget: int = 0
    targets: tuple[str, ...] = ()
    co_apps: tuple[str, ...] = ()
    counts: tuple[int, ...] = ()
    frequencies_ghz: tuple[float, ...] = ()
    seed: int = 2015
    model_kinds: tuple[str, ...] = ("linear", "neural")
    feature_sets: tuple[str, ...] = ("F",)
    repetitions: int = 10

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise SuiteSpecError(
                f"bad case name {self.name!r}: use letters, digits, and "
                f"[._@-], starting with a letter or digit"
            )
        if self.sampling not in ("grid", "random"):
            raise SuiteSpecError(
                f"case {self.name!r}: sampling must be 'grid' (the Table V "
                f"loop nest) or 'random' ([DwF12]-style); got "
                f"{self.sampling!r}"
            )
        if self.sampling == "random" and self.budget < 1:
            raise SuiteSpecError(
                f"case {self.name!r}: random sampling needs a positive "
                f"'budget' (observations to draw)"
            )
        if self.sampling == "grid" and self.budget:
            raise SuiteSpecError(
                f"case {self.name!r}: 'budget' only applies to "
                f"sampling='random'"
            )
        if any(c < 1 for c in self.counts):
            raise SuiteSpecError(
                f"case {self.name!r}: co-location counts must be >= 1"
            )
        for field_name in ("targets", "co_apps", "counts", "frequencies_ghz"):
            values = getattr(self, field_name)
            if len(set(values)) < len(values):
                raise SuiteSpecError(
                    f"case {self.name!r}: each of {field_name} may appear "
                    f"only once, got {list(values)}"
                )
        if self.repetitions < 1:
            raise SuiteSpecError(
                f"case {self.name!r}: repetitions must be >= 1"
            )
        if not self.model_kinds:
            raise SuiteSpecError(
                f"case {self.name!r}: need at least one model kind"
            )
        if not self.feature_sets:
            raise SuiteSpecError(
                f"case {self.name!r}: need at least one feature set"
            )

    def validate_catalog(self) -> None:
        """Check machine/app/model names against the live catalogs.

        Separate from ``__post_init__`` so the structural dataclass stays
        importable without dragging in the simulator; :func:`parse_suite`
        always calls it.
        """
        from ..core.feature_sets import FeatureSet
        from ..core.methodology import ModelKind
        from ..machine.processor import get_processor
        from ..workloads.suite import get_application

        try:
            get_processor(self.machine)
        except KeyError as exc:
            raise SuiteSpecError(
                f"case {self.name!r}: {exc.args[0]}"
            ) from None
        for app_name in (*self.targets, *self.co_apps):
            try:
                get_application(app_name)
            except KeyError as exc:
                raise SuiteSpecError(
                    f"case {self.name!r}: {exc.args[0]}"
                ) from None
        for kind in self.model_kinds:
            try:
                ModelKind(kind)
            except ValueError:
                raise SuiteSpecError(
                    f"case {self.name!r}: unknown model kind {kind!r}; "
                    f"choose from {[k.value for k in ModelKind]}"
                ) from None
        for fs in self.feature_sets:
            try:
                FeatureSet(fs)
            except ValueError:
                raise SuiteSpecError(
                    f"case {self.name!r}: unknown feature set {fs!r}; "
                    f"choose from {[f.value for f in FeatureSet]}"
                ) from None

    # --------------------------------------------------------- key material
    def collect_spec(self) -> dict:
        """The parameters that determine the collected dataset, canonical."""
        spec = {
            "machine": self.machine,
            "sampling": self.sampling,
            "targets": list(self.targets),
            "co_apps": list(self.co_apps),
            "counts": list(self.counts),
            "frequencies_ghz": [float(f) for f in self.frequencies_ghz],
            "seed": self.seed,
        }
        if self.sampling == "random":
            spec["budget"] = self.budget
        return spec

    def train_spec(self, kind: str, feature_set: str) -> dict:
        """The parameters that determine one fitted model artifact."""
        return {"kind": kind, "feature_set": feature_set, "seed": self.seed}

    def evaluate_spec(self) -> dict:
        """The parameters that determine the evaluation grid artifact."""
        return {
            "model_kinds": list(self.model_kinds),
            "feature_sets": list(self.feature_sets),
            "repetitions": self.repetitions,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class SuiteSpec:
    """A named, validated set of expanded cases."""

    name: str
    cases: tuple[CaseSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise SuiteSpecError(f"bad suite name {self.name!r}")
        if not self.cases:
            raise SuiteSpecError(f"suite {self.name!r} declares no cases")
        seen: set[str] = set()
        for case in self.cases:
            if case.name in seen:
                raise SuiteSpecError(
                    f"suite {self.name!r} has two cases named "
                    f"{case.name!r}; matrix expansions need distinct "
                    f"{{param}} placeholders in the name"
                )
            seen.add(case.name)

    def case(self, name: str) -> CaseSpec:
        """Look one case up by name."""
        for case in self.cases:
            if case.name == name:
                return case
        raise SuiteSpecError(
            f"suite {self.name!r} has no case {name!r}; "
            f"cases: {[c.name for c in self.cases]}"
        )


def _coerce_case(name: str, raw: dict) -> CaseSpec:
    """Build one CaseSpec from a merged (defaults | case | matrix) dict."""
    unknown = set(raw) - _CASE_FIELDS
    if unknown:
        raise SuiteSpecError(
            f"case {name!r}: unknown field(s) {sorted(unknown)}; "
            f"valid fields: {sorted(_CASE_FIELDS)}"
        )
    kwargs: dict = {"name": name}
    try:
        for f in fields(CaseSpec):
            if f.name == "name" or f.name not in raw:
                continue
            value = raw[f.name]
            if f.name in ("targets", "co_apps", "model_kinds", "feature_sets"):
                kwargs[f.name] = tuple(str(v) for v in value)
            elif f.name == "counts":
                kwargs[f.name] = tuple(int(v) for v in value)
            elif f.name == "frequencies_ghz":
                kwargs[f.name] = tuple(float(v) for v in value)
            elif f.name in ("seed", "budget", "repetitions"):
                kwargs[f.name] = int(value)
            else:
                kwargs[f.name] = str(value)
    except (TypeError, ValueError) as exc:
        raise SuiteSpecError(f"case {name!r}: {exc}") from None
    return CaseSpec(**kwargs)


def _expand_case(raw: dict, defaults: dict, index: int) -> list[CaseSpec]:
    """Expand one spec-file case entry (matrix cross product included)."""
    if not isinstance(raw, dict):
        raise SuiteSpecError(f"case #{index} must be an object; got {raw!r}")
    raw = dict(raw)
    name_template = raw.pop("name", None)
    if not isinstance(name_template, str) or not name_template:
        raise SuiteSpecError(f"case #{index} needs a non-empty 'name'")
    matrix = raw.pop("matrix", None)
    if matrix is None:
        merged = {**defaults, **raw}
        return [_coerce_case(name_template, merged)]
    if not isinstance(matrix, dict) or not matrix:
        raise SuiteSpecError(
            f"case {name_template!r}: 'matrix' must be a non-empty object "
            f"mapping parameter -> list of values"
        )
    params = sorted(matrix)
    axes = []
    for param in params:
        if param not in _CASE_FIELDS:
            raise SuiteSpecError(
                f"case {name_template!r}: matrix parameter {param!r} is "
                f"not a case field; valid fields: {sorted(_CASE_FIELDS)}"
            )
        values = matrix[param]
        if not isinstance(values, (list, tuple)) or not values:
            raise SuiteSpecError(
                f"case {name_template!r}: matrix parameter {param!r} "
                f"needs a non-empty list of values"
            )
        axes.append(list(values))
    n_combos = 1
    for axis in axes:
        n_combos *= len(axis)
    expanded = []
    for combo in itertools.product(*axes):
        assignment = dict(zip(params, combo))
        merged = {**defaults, **raw, **assignment}
        try:
            name = name_template.format(**{
                # str() the values so e.g. float frequencies name cleanly.
                k: v if isinstance(v, str) else json.dumps(v)
                for k, v in assignment.items()
            })
        except (KeyError, IndexError, ValueError) as exc:
            raise SuiteSpecError(
                f"case {name_template!r}: cannot format name with matrix "
                f"assignment {assignment}: {exc}"
            ) from None
        if name == name_template and n_combos > 1:
            # No placeholder consumed: suffix deterministically so the
            # expansion still yields distinct names.
            suffix = "-".join(
                str(v).replace(" ", "") for v in assignment.values()
            )
            name = f"{name_template}-{suffix}"
        expanded.append(_coerce_case(name, merged))
    return expanded


def parse_suite(data: dict) -> SuiteSpec:
    """Validate a parsed spec document into a :class:`SuiteSpec`."""
    if not isinstance(data, dict):
        raise SuiteSpecError(f"suite spec must be an object; got {data!r}")
    name = data.get("suite")
    if not isinstance(name, str) or not name:
        raise SuiteSpecError("suite spec needs a non-empty 'suite' name")
    defaults = data.get("defaults", {})
    if not isinstance(defaults, dict):
        raise SuiteSpecError("'defaults' must be an object")
    bad_defaults = set(defaults) - _CASE_FIELDS
    if bad_defaults:
        raise SuiteSpecError(
            f"unknown default field(s) {sorted(bad_defaults)}; "
            f"valid fields: {sorted(_CASE_FIELDS)}"
        )
    raw_cases = data.get("cases")
    if not isinstance(raw_cases, list) or not raw_cases:
        raise SuiteSpecError("suite spec needs a non-empty 'cases' list")
    cases: list[CaseSpec] = []
    for index, raw in enumerate(raw_cases):
        cases.extend(_expand_case(raw, defaults, index))
    suite = SuiteSpec(name=name, cases=tuple(cases))
    for case in suite.cases:
        case.validate_catalog()
    return suite


def load_suite(path: str | Path) -> SuiteSpec:
    """Load and validate a suite spec file (``.toml`` or JSON)."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise SuiteSpecError(f"cannot read suite spec {path}: {exc}") from None
    if path.suffix.lower() == ".toml":
        import tomllib

        try:
            data = tomllib.loads(raw.decode())
        except (tomllib.TOMLDecodeError, UnicodeDecodeError) as exc:
            raise SuiteSpecError(
                f"suite spec {path} is not valid TOML: {exc}"
            ) from None
    else:
        try:
            data = json.loads(raw.decode())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SuiteSpecError(
                f"suite spec {path} is not valid JSON: {exc}"
            ) from None
    return parse_suite(data)
