"""
Unit tests for scenario assembly, presets, and semantic validation.

Core claims:
    - TargetSpectrum validates structure and freezes arrays
    - Scenario enforces the seed-xor-positions rule, input shapes and the
      robot-count bound; explicit positions fail with RobotConfiguration's
      own messages, and the scenario keeps a frozen copy; n, d and seed are
      integers, not floats or booleans
    - random_geometric_config is deterministic per seed and unit-box bounded,
      and refuses n < 2 and d < 1 with RobotConfiguration's messages
    - hexagon_formation is a regular hexagon with a central robot, and its
      side length is a positive real, not a boolean
    - target_from_formation reproduces the formation's own moments and
      spectrum, hence realizable targets
    - preset returns the two bundled scenarios, validated clean, with their
      reference target tables and tuned integrator settings, field by field
      at every order; preset_data hands out a fresh copy of their file data
    - scenario_violations flags each semantic rule violation separately and
      leaves realizability ceilings to ensure_feasible; targets and params
      that disagree on the order, which no file can give, make cost and
      simulate raise
    - reading a file recomputes moments from its reference spectrum only when
      the file gives that spectrum itself, never for formation targets
    - scenario_from_dict reads every given field of a file, through JSON
      text, into the attribute its SCHEMA row names, with targets and params
      of one order s <= n
    - SCHEMA maps a file key to every constructor field exactly once
    - a positions file's default order is the largest that is both finite
      and within the chain plan's memory bound, found without evaluating
"""

import dataclasses
import json
import re
import tracemalloc
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from momentflow.dynamics import (
    SimulationSettings,
    UnrealizableTargetsError,
    ensure_feasible,
    simulate,
)
from momentflow.gradient import DEFAULT_EPSILON, ControllerParams, TargetSpectrum, cost
from momentflow.network import (
    RobotConfiguration,
    build_adjacency,
    complete_graph_moments,
    eigenvalues,
    moments_from_eigenvalues,
    spectral_moments,
)
from momentflow.scenarios import (
    MAX_DIMENSION,
    MAX_ROBOTS,
    PRESET_NAMES,
    SCHEMA,
    Scenario,
    hexagon_formation,
    positions_from_dict,
    preset,
    preset_data,
    random_geometric_config,
    scenario_from_dict,
    scenario_violations,
    target_from_formation,
)


# -- Helpers -----------------------------------------------------------------

def _valid_scenario(**overrides):
    """A small scenario that passes every semantic check."""
    fields = dict(
        name="valid",
        n=5,
        d=2,
        params=ControllerParams(decay=1.0, metric=2, order=3),
        targets=TargetSpectrum([0.0, 0.8, 0.9]),
        settings=SimulationSettings(),
        seed=0,
    )
    fields.update(overrides)
    return Scenario(**fields)


# == 1. TargetSpectrum =======================================================

class TestTargetSpectrum:
    def test_order_property(self):
        targets = TargetSpectrum([0.0, 1.0, 2.0])
        assert targets.order == 3
        assert targets.reference_eigenvalues is None

    def test_arrays_frozen(self):
        targets = TargetSpectrum([0.0, 1.0], reference_eigenvalues=[1.0, -1.0])
        with pytest.raises(ValueError):
            targets.moments[0] = 5.0
        with pytest.raises(ValueError):
            targets.reference_eigenvalues[0] = 5.0

    def test_rejects_bad_moments(self):
        with pytest.raises(ValueError):
            TargetSpectrum([[0.0, 1.0]])
        with pytest.raises(ValueError):
            TargetSpectrum([0.0])
        with pytest.raises(ValueError):
            TargetSpectrum([0.0, np.nan])

    def test_rejects_bad_reference(self):
        with pytest.raises(ValueError):
            TargetSpectrum([0.0, 1.0], reference_eigenvalues=[1.0])
        with pytest.raises(ValueError):
            TargetSpectrum([0.0, 1.0], reference_eigenvalues=[np.inf, 0.0])


# == 2. Scenario structure ===================================================

class TestScenario:
    def test_seed_start(self):
        scenario = _valid_scenario()
        config = scenario.initial_configuration()
        assert config.n == 5
        assert config.d == 2

    def test_explicit_positions_start(self):
        positions = np.arange(10.0).reshape(5, 2)
        scenario = _valid_scenario(seed=None, initial_positions=positions)
        config = scenario.initial_configuration()
        assert np.array_equal(config.positions, positions)

    def test_seed_xor_positions(self):
        with pytest.raises(ValueError):
            _valid_scenario(seed=None)
        with pytest.raises(ValueError):
            _valid_scenario(initial_positions=np.zeros((5, 2)))

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            _valid_scenario(seed=-1)
        with pytest.raises(ValueError):
            _valid_scenario(seed=1.5)
        # A boolean is not a seed (True would draw seed 1), as a file's is not.
        with pytest.raises(ValueError, match=r"^seed must be a nonnegative integer, got True$"):
            _valid_scenario(seed=True)

    @pytest.mark.parametrize("n, d", [(5.0, 2), (True, 2), (5, 2.0), (5, True)])
    def test_counts_must_be_integers(self, n, d):
        # Accepted, n = 5.0 would fail later, in the seeded draw, with a TypeError.
        with pytest.raises(ValueError, match=f"^n and d must be integers, got n={n!r}, d={d!r}$"):
            _valid_scenario(n=n, d=d)

    def test_rejects_bad_positions(self):
        with pytest.raises(ValueError):
            _valid_scenario(seed=None, initial_positions=np.zeros((4, 2)))
        with pytest.raises(ValueError):
            _valid_scenario(
                seed=None, initial_positions=np.full((5, 2), np.nan)
            )

    def test_rejects_bad_name_and_counts(self):
        with pytest.raises(ValueError):
            _valid_scenario(name="")
        with pytest.raises(ValueError):
            _valid_scenario(n=1)
        with pytest.raises(ValueError):
            _valid_scenario(d=0)
        with pytest.raises(ValueError, match=f"at most {MAX_ROBOTS} robots, got n="):
            _valid_scenario(n=MAX_ROBOTS + 1)
        assert _valid_scenario(n=MAX_ROBOTS).n == MAX_ROBOTS

    @pytest.mark.parametrize("positions", [
        np.full((5, 2), np.nan), np.zeros((1, 2)), np.zeros((5, 0)), np.zeros(5),
    ])
    def test_positions_fail_as_a_configuration(self, positions):
        # RobotConfiguration's checks are the only ones: the same message.
        with pytest.raises(ValueError) as expected:
            RobotConfiguration(positions)
        with pytest.raises(ValueError) as raised:
            _valid_scenario(seed=None, initial_positions=positions)
        assert str(raised.value) == str(expected.value)

    def test_positions_copied_and_frozen(self):
        positions = np.arange(10.0).reshape(5, 2)
        scenario = _valid_scenario(seed=None, initial_positions=positions)
        positions[0, 0] = 7.0
        assert scenario.initial_positions[0, 0] == 0.0
        assert not scenario.initial_positions.flags.writeable


# == 3. Random configurations ================================================

class TestRandomGeometricConfig:
    def test_deterministic_per_seed(self):
        first = random_geometric_config(6, 2, 42)
        second = random_geometric_config(6, 2, 42)
        other = random_geometric_config(6, 2, 43)
        assert np.array_equal(first.positions, second.positions)
        assert not np.array_equal(first.positions, other.positions)

    def test_unit_box(self):
        config = random_geometric_config(50, 3, 7)
        assert np.all(config.positions >= 0.0)
        assert np.all(config.positions < 1.0)

    def test_validation(self):
        # RobotConfiguration's refusals, word for word.
        with pytest.raises(ValueError, match="^a network needs at least 2 robots, got n=1$"):
            random_geometric_config(1, 2, 0)
        with pytest.raises(ValueError, match="^spatial dimension must be at least 1, got d=0$"):
            random_geometric_config(3, 0, 0)


# == 4. Hexagon formation ====================================================

class TestHexagonFormation:
    def test_center_and_vertices(self):
        config = hexagon_formation(side_length=2.0)
        assert config.n == 7
        assert np.array_equal(config.positions[0], [0.0, 0.0])
        radii = np.linalg.norm(config.positions[1:], axis=1)
        assert radii == approx(np.full(6, 2.0))

    def test_adjacent_vertices_one_side_apart(self):
        side = 1.5
        config = hexagon_formation(side_length=side)
        vertices = config.positions[1:]
        for j in range(6):
            gap = np.linalg.norm(vertices[j] - vertices[(j + 1) % 6])
            assert gap == approx(side)

    def test_validation(self):
        with pytest.raises(ValueError):
            hexagon_formation(side_length=0.0)

    @pytest.mark.parametrize("side_length", [True, np.True_, None, "0.1", np.array([0.1, 0.2])])
    def test_side_length_is_a_real_not_a_bool(self, side_length):
        # Accepted, True drew a hexagon of side 1.0; None and "0.1" raised a TypeError, and the
        # array numpy's ambiguous-truth ValueError.
        message = f"^{re.escape(f'side_length must be a positive real, got {side_length}')}$"
        with pytest.raises(ValueError, match=message):
            hexagon_formation(side_length)


# == 5. Targets from formations ==============================================

class TestTargetFromFormation:
    def test_matches_formation_moments(self):
        config = hexagon_formation()
        params = ControllerParams(decay=1.0, metric=2, order=4)
        targets = target_from_formation(config, params)
        adjacency = build_adjacency(config, 1.0, 2)
        assert np.allclose(
            targets.moments, spectral_moments(adjacency, 4).values
        )
        assert np.allclose(
            targets.reference_eigenvalues, eigenvalues(adjacency)
        )

    def test_explicit_order(self):
        config = hexagon_formation()
        params = ControllerParams(decay=1.0, metric=2, order=6)
        targets = target_from_formation(config, params)
        assert targets.order == 6
        assert targets.reference_eigenvalues.shape == (7,)

    def test_targets_realizable(self):
        config = random_geometric_config(6, 2, 3)
        params = ControllerParams(decay=1.0, metric=2, order=5)
        targets = target_from_formation(config, params)
        ceilings = complete_graph_moments(6, 5).values
        assert np.all(targets.moments[1:] < ceilings[1:])


# == 6. Presets ==============================================================

# The bundled tables written out: n, seed, default order, moment table,
# reference eigenvalues and cost tolerance.
_PRESET_TABLES = {
    "hexagon7": (7, 4, 7, [0.0, 0.53, 0.64, 1.22, 2.02, 3.47, 5.90],
                 [1.70, 0.05, 0.05, -0.40, -0.40, -0.47, -0.51], 8e-5),
    "rgg10": (10, 0, 4, [0.0, 3.11, 13.45, 71.60, 368.36, 1905.0],
              [5.16, 0.27, 0.02, -0.61, -0.68, -0.77, -0.79, -0.84, -0.85, -0.89], 2e-4),
}


class TestPresets:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_validate_clean(self, name):
        scenario = preset(name)
        assert scenario_violations(scenario) == []

    def test_hexagon_defaults(self):
        scenario = preset("hexagon7")
        assert scenario.n == 7
        assert scenario.d == 2
        assert scenario.params.order == 7
        assert scenario.params.metric == 2
        assert scenario.targets.moments[0] == 0.0
        assert scenario.targets.moments[1] == approx(0.53)
        assert scenario.targets.reference_eigenvalues[0] == approx(1.70)

    def test_rgg_defaults(self):
        scenario = preset("rgg10")
        assert scenario.n == 10
        assert scenario.params.order == 4
        assert scenario.targets.moments[1] == approx(3.11)
        assert scenario.targets.reference_eigenvalues.shape == (10,)

    def test_order_truncation(self):
        scenario = preset("hexagon7", order=4)
        assert scenario.params.order == 4
        assert scenario.targets.order == 4
        # Full reference spectrum survives truncation.
        assert scenario.targets.reference_eigenvalues.shape == (7,)
        assert scenario_violations(scenario) == []

    def test_order_bounds(self):
        # The reasons scenario_from_dict gives for the preset's data at that s.
        with pytest.raises(ValueError, match=r"^s=8 exceeds the 7 provided target moments$"):
            preset("hexagon7", order=8)
        with pytest.raises(ValueError, match=r"^s=7 exceeds the 6 provided target moments$"):
            preset("rgg10", order=7)
        with pytest.raises(ValueError, match=r"^field 's' must be at least 2, got 1$"):
            preset("rgg10", order=1)

    def test_unknown_name(self):
        for read in (preset, preset_data):
            with pytest.raises(
                ValueError, match=r"^unknown preset 'decagon12'; available: hexagon7, rgg10$"
            ):
                read("decagon12")

    @pytest.mark.parametrize("name, order", [
        (name, order) for name, table in _PRESET_TABLES.items()
        for order in [None, *range(2, len(table[3]) + 1)]
    ])
    def test_fields_at_every_order(self, name, order):
        n, seed, default_order, moments, reference, tolerance = _PRESET_TABLES[name]
        scenario = preset(name, order)
        order = default_order if order is None else order
        assert (scenario.name, scenario.n, scenario.d, scenario.seed) == (name, n, 2, seed)
        assert scenario.initial_positions is None
        params = scenario.params
        assert (params.decay, params.metric, params.order) == (1.0, 2, order)
        assert params.epsilons == (0.0,) + (DEFAULT_EPSILON,) * (order - 1)
        assert scenario.targets.moments.tolist() == moments[:order]
        assert scenario.targets.reference_eigenvalues.tolist() == reference
        expected = SimulationSettings(cost_tolerance=tolerance)
        assert vars(scenario.settings) == vars(expected)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_data_is_a_fresh_copy(self, name):
        data = preset_data(name)
        data["targets"]["moments"].clear()
        data["s"] = 2
        assert preset_data(name)["targets"]["moments"] == _PRESET_TABLES[name][3]
        assert preset(name).params.order == _PRESET_TABLES[name][2]


# == 7. Semantic validation ==================================================

class TestScenarioViolations:
    def test_valid_scenario_is_clean(self):
        assert scenario_violations(_valid_scenario()) == []

    def test_dimension_cap(self):
        scenario = _valid_scenario(
            d=4,
            seed=None,
            initial_positions=np.arange(20.0).reshape(5, 4),
        )
        assert "spatial dimension d=4 exceeds 3" in scenario_violations(scenario)
        assert MAX_DIMENSION == 3  # verify reads the same bound (tests/test_cli.py)

    def test_order_above_robot_count(self):
        scenario = _valid_scenario(
            n=3,
            params=ControllerParams(decay=1.0, metric=2, order=4),
            targets=TargetSpectrum([0.0, 0.5, 0.5, 0.5]),
            seed=None,
            initial_positions=np.zeros((3, 2)) + np.arange(3)[:, None],
        )
        assert any("exceeds robot count" in v for v in scenario_violations(scenario))

    def test_order_mismatch(self):
        # No file can disagree (scenario_from_dict reads both orders from s);
        # a scenario built in code is refused by the flow itself.
        scenario = _valid_scenario(targets=TargetSpectrum([0.0, 0.8]))
        message = "targets carry 2 moments but params.order is 3"
        with pytest.raises(ValueError, match=message):
            cost(scenario.initial_configuration(), scenario.targets, scenario.params)
        with pytest.raises(ValueError, match=message):
            simulate(scenario)

    def test_first_moment_must_vanish(self):
        scenario = _valid_scenario(targets=TargetSpectrum([0.1, 0.8, 0.9]))
        assert any("m_1*" in v for v in scenario_violations(scenario))

    def test_negative_even_target(self):
        scenario = _valid_scenario(targets=TargetSpectrum([0.0, -0.5, 0.9]))
        assert any("negative" in v for v in scenario_violations(scenario))

    def test_ceiling_violation(self):
        # m_2 ceiling at n=5 is 4.  A target at the ceiling is a valid file
        # whose run cannot start: only ensure_feasible refuses it.
        scenario = _valid_scenario(targets=TargetSpectrum([0.0, 4.0, 0.9]))
        assert scenario_violations(scenario) == []
        with pytest.raises(UnrealizableTargetsError, match="m_2"):
            ensure_feasible(
                scenario.initial_configuration(), scenario.targets, scenario.params
            )

    def test_reference_count_mismatch(self):
        scenario = _valid_scenario(
            targets=TargetSpectrum(
                [0.0, 0.8, 0.9], reference_eigenvalues=[1.0, -0.5, -0.5]
            )
        )
        assert any("eigenvalues" in v for v in scenario_violations(scenario))

    def test_reference_moment_inconsistency(self):
        # A spectrum whose power sums disagree with the stored targets.
        scenario = _valid_scenario(
            targets=TargetSpectrum(
                [0.0, 0.8, 0.9],
                reference_eigenvalues=[2.0, 1.0, -1.0, -1.0, -1.0],
            )
        )
        assert any("reproduce" in v for v in scenario_violations(scenario))


    def test_formation_spectrum_with_other_moments(self):
        # A scenario built in code is checked whatever its targets came from: here a
        # formation's own spectrum beside moments that are not its own.
        params = ControllerParams(decay=1.0, metric=2, order=3)
        own = target_from_formation(hexagon_formation(), params)
        scenario = _valid_scenario(
            n=7, params=params,
            targets=TargetSpectrum(own.moments * 2.0, own.reference_eigenvalues))
        assert any("reproduce m_2" in v for v in scenario_violations(scenario))


class TestReferenceCheckedOnce:
    """A file's formation targets are its moments and spectrum from one evaluation, so
    reading it recomputes no moments from that spectrum; a file's own reference
    spectrum is still checked against its moment targets."""

    @pytest.mark.parametrize("formation", [
        {"type": "hexagon"},
        {"type": "positions", "parameters": {"positions": [[0, 0], [1, 0], [0, 2], [3, 1]]}},
    ])
    def test_formation_file_recomputes_no_moments(self, formation):
        n = 7 if formation["type"] == "hexagon" else 4
        data = {"name": "f", "n": n, "d": 2, "seed": 0, "targets": {"formation": formation}}
        with mock.patch("momentflow.scenarios.moments_from_eigenvalues",
                        wraps=moments_from_eigenvalues) as spy:
            scenario, problems = scenario_from_dict(data)
            assert problems == [] and spy.call_count == 0
            # The public check still recomputes them, and they agree.
            assert scenario_violations(scenario) == [] and spy.call_count == 1

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_moments_file_reference_is_checked(self, name):
        with mock.patch("momentflow.scenarios.moments_from_eigenvalues",
                        wraps=moments_from_eigenvalues) as spy:
            assert scenario_from_dict(preset_data(name))[1] == []
            assert spy.call_count == 1


# == 8. Scenario file schema =================================================

_UNIT = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def _scenario_files(draw):
    """Valid scenario file data over every schema field.

    Targets are a formation's own moments, either written out (optionally
    with its spectrum as reference eigenvalues) or named as a positions
    formation.  The formation's robots sit two units apart along the first
    axis, plus jitter below one, so its targets stay strictly below their
    ceilings.
    """
    n = draw(st.integers(2, 6))
    d = draw(st.integers(1, 3))
    # Without s the order is the number of moments, n here.
    order = draw(st.sampled_from([None, *range(2, n + 1)]))
    decay = draw(st.floats(0.2, 3.0))
    metric = draw(st.sampled_from([1, 2]))
    rows = lambda: draw(st.lists(st.lists(_UNIT, min_size=d, max_size=d),
                                 min_size=n, max_size=n))
    formation = np.array(rows()) + np.outer(2.0 * np.arange(n), np.eye(d)[0])
    data = {
        "name": draw(st.text(min_size=1, max_size=8)), "n": n, "d": d,
        "c": decay, "z": metric,
        "epsilons": [0.0] + draw(st.lists(st.floats(0.0, 1e-3), min_size=(order or n) - 1,
                                          max_size=n)),
        "dt": draw(st.floats(1e-3, 0.5)), "max_time": draw(st.floats(1.0, 1e4)),
        "cost_tolerance": draw(st.floats(1e-8, 1e-2)),
        "record_every": draw(st.integers(1, 50)),
    }
    if order is not None:
        data["s"] = order
    if draw(st.booleans()):
        data["seed"] = draw(st.integers(0, 2**40))
    else:
        data["positions"] = rows()
    params = ControllerParams(decay=decay, metric=metric, order=n)
    goal = target_from_formation(RobotConfiguration(formation), params)
    style = draw(st.sampled_from(["moments", "moments+reference", "formation"]))
    if style == "formation":
        data["targets"] = {"formation": {"type": "positions",
                                         "parameters": {"positions": formation.tolist()}}}
    else:
        data["targets"] = {"moments": goal.moments.tolist()}
    if style == "moments+reference":
        data["reference_eigenvalues"] = goal.reference_eigenvalues.tolist()
    return data


class TestScenarioFileSchema:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(_scenario_files())
    def test_given_fields_land_in_their_attributes(self, data):
        scenario, problems = scenario_from_dict(json.loads(json.dumps(data)))
        assert problems == []
        # Every given field is read into the attribute its SCHEMA row names;
        # epsilons and moment targets are truncated to the order.
        order = scenario.params.order
        assert order == data.get("s", data["n"])
        assert scenario.targets.order == scenario.params.order <= scenario.n
        given = dict(data, epsilons=data["epsilons"][:order], s=order)
        targets = given.pop("targets")
        if "moments" in targets:
            given["targets"] = targets["moments"][:order]
        for key, value in given.items():
            read = reduce(getattr, SCHEMA[key][2].split("."), scenario)
            if key == "targets":
                read = read.moments
            if isinstance(read, (tuple, np.ndarray)):
                read = np.asarray(read, dtype=float).tolist()
            assert read == value, key

    def test_schema_names_every_field_once(self):
        def names(cls, prefix=""):
            return [prefix + field.name for field in dataclasses.fields(cls)]

        attributes = [attribute for _, _, attribute in SCHEMA.values()]
        # The "targets" key is the targets block, which carries targets.moments.
        covered = attributes + ["targets.moments"]
        expected = (
            [name for name in names(Scenario) if name not in ("params", "settings")]
            + names(ControllerParams, "params.")
            + names(SimulationSettings, "settings.")
            + names(TargetSpectrum, "targets.")
        )
        assert sorted(covered) == sorted(expected)
        scenario = preset("hexagon7")
        for attribute in attributes:
            reduce(getattr, attribute.split("."), scenario)

    def test_null_number_takes_its_default(self):
        data = {"name": "nulls", "n": 3, "d": 2, "seed": 0, "c": None, "z": None,
                "s": None, "dt": None, "record_every": None,
                "targets": {"moments": [0.0, 0.1, 0.01]}}
        scenario, problems = scenario_from_dict(data)
        assert problems == []
        assert (scenario.params.decay, scenario.params.metric) == (1.0, 1)
        assert scenario.params.order == 3
        assert scenario.settings.dt == SimulationSettings().dt
        # A null where no number belongs is malformed, not a default.
        for key in ("epsilons", "targets", "name"):
            scenario, problems = scenario_from_dict(dict(data, **{key: None}))
            assert scenario is None
            assert any(f"'{key}'" in p for p in problems)


# == 9. Positions files ======================================================

class TestPositionsFile:
    @pytest.mark.parametrize("n, d, order", [
        (1000, 2, 102), (2000, 2, 62), (4096, 1, 8), (4096, 2, 6), (4096, 3, 4),
    ])
    def test_default_order_within_the_memory_bound(self, n, d, order):
        # The largest order both finite and within the plan's bound, read
        # without evaluating: no n x n array forms.
        data = {"positions": np.random.default_rng(n + d).random((n, d)).tolist()}
        tracemalloc.start()
        try:
            found, problems = positions_from_dict(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert problems == [] and found[3] == order
        assert peak < n * n * 8
