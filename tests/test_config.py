"""Configuration parsing, validation, canonical serialization, hashing."""

import math
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zenometry.config as config
from zenometry import (
    ConfigError,
    SUBCOMMANDS,
    ExperimentConfig,
    config_hash,
    load_config,
    parse_config_text,
    serialize_config,
)


class TestParsing:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.strategy == "ghz"
        assert cfg.n_values == (1, 2, 3, 4, 5, 6)
        assert cfg.model_kind == "quadratic"
        assert cfg.model_coefficient == 1.0
        assert cfg.markovian_rate == pytest.approx(math.exp(-0.5), rel=1e-15)
        assert cfg.interrogation_time == "opt"
        assert cfg.shots_per_setting == 1_000_000
        assert cfg.seed is None
        assert cfg.mode == "analytic"

    def test_section_parsing(self):
        text = """
[scaling]
strategy = product
n_values = 1..6
shots_per_setting = 5000
seed = 42
visibilities = 0.9781, 0.9178, 0.8645, 0.8216, 0.7968, 0.7146
mode = montecarlo
"""
        cfg = parse_config_text(text)["scaling"]
        assert cfg.strategy == "product"
        assert cfg.n_values == (1, 2, 3, 4, 5, 6)
        assert cfg.shots_per_setting == 5000
        assert cfg.seed == 42
        assert cfg.visibilities == (0.9781, 0.9178, 0.8645, 0.8216, 0.7968,
                                    0.7146)
        assert cfg.mode == "montecarlo"

    def test_explicit_list_and_range_agree(self):
        a = parse_config_text("[fringe]\nn_values = 2..4\n")["fringe"]
        b = parse_config_text("[fringe]\nn_values = 2, 3, 4\n")["fringe"]
        assert a.n_values == b.n_values == (2, 3, 4)

    def test_none_values(self):
        cfg = parse_config_text("[fringe]\nseed = none\ntheta_points =\n")["fringe"]
        assert cfg.seed is None
        assert cfg.theta_points is None

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match=r"\[fringe\] qubits"):
            parse_config_text("[fringe]\nqubits = 3\n")
        # the true frequency enters no computation, so it is not a key
        with pytest.raises(ConfigError, match=r"\[fringe\] omega_true: unknown key"):
            parse_config_text("[fringe]\nomega_true = 1.0\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="tomography"):
            parse_config_text("[tomography]\nseed = 1\n")

    def test_required_value_cannot_be_none(self):
        with pytest.raises(ConfigError, match="value required"):
            parse_config_text("[fringe]\nstrategy = none\n")

    def test_type_errors(self):
        with pytest.raises(ConfigError, match="integer"):
            parse_config_text("[fringe]\nseed = soon\n")
        with pytest.raises(ConfigError, match="number"):
            parse_config_text("[fringe]\nmodel_coefficient = fast\n")
        with pytest.raises(ConfigError, match="finite"):
            parse_config_text("[fringe]\nmodel_coefficient = inf\n")
        with pytest.raises(ConfigError, match="empty range"):
            parse_config_text("[fringe]\nn_values = 6..1\n")

    def test_malformed_ini(self):
        with pytest.raises(ConfigError, match="malformed"):
            parse_config_text("strategy = ghz\n")  # key before any section


class TestValidation:
    @staticmethod
    def check(section="fringe", **changes):
        from zenometry.config import validate_config
        validate_config(ExperimentConfig(**changes), section)

    def test_defaults_pass_everywhere_except_witness(self):
        for section in ("fringe", "scaling", "compare-markovian",
                        "noise-sweep", "channel-calibration"):
            self.check(section)

    def test_field_path_in_message(self):
        with pytest.raises(ConfigError, match=r"\[scaling\] trials"):
            self.check("scaling", trials=50)

    def test_choices(self):
        with pytest.raises(ConfigError, match="strategy"):
            self.check(strategy="cat")
        with pytest.raises(ConfigError, match="mode"):
            self.check(mode="exact")
        with pytest.raises(ConfigError, match="model_kind"):
            self.check(model_kind="cubic")

    def test_montecarlo_needs_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            self.check("fringe", mode="montecarlo")
        self.check("fringe", mode="montecarlo", seed=7)
        # non-sampling commands never require one
        self.check("noise-sweep", mode="montecarlo")

    def test_numeric_domains(self):
        with pytest.raises(ConfigError, match="n_values"):
            self.check(n_values=(0, 1))
        with pytest.raises(ConfigError, match="model_coefficient"):
            self.check(model_coefficient=0.0)
        with pytest.raises(ConfigError, match="shots_per_setting"):
            self.check(shots_per_setting=0)
        with pytest.raises(ConfigError, match="theta_points"):
            self.check(theta_points=3)
        with pytest.raises(ConfigError, match="seed"):
            self.check(seed=2**64)
        with pytest.raises(ConfigError, match="waist_mm"):
            self.check(waist_mm=0.0)
        with pytest.raises(ConfigError, match="interrogation_time"):
            self.check(interrogation_time="-1.0")
        with pytest.raises(ConfigError, match="interrogation_time"):
            self.check(interrogation_time="later")
        self.check(interrogation_time="0.25")

    def test_visibility_lists(self):
        self.check(visibilities=(0.9,))
        self.check(visibilities=(0.9,) * 6)
        with pytest.raises(ConfigError, match="one per entry"):
            self.check(visibilities=(0.9, 0.8))
        with pytest.raises(ConfigError, match=r"\(0, 1\]"):
            self.check(visibilities=(1.5,) * 6)

    def test_duplicates_rejected(self):
        with pytest.raises(ConfigError,
                           match=r"\[scaling\] n_values: .* once"):
            self.check("scaling", n_values=(1, 2, 3, 2))
        with pytest.raises(ConfigError,
                           match=r"\[noise-sweep\] fusion_visibilities: .* once"):
            self.check("noise-sweep", fusion_visibilities=(0.99, 1.0, 0.99))
        # duplicates are equal numbers, not equal spellings
        cfg = parse_config_text("[noise-sweep]\nfusion_visibilities = "
                                "0.99, 0.990\n")["noise-sweep"]
        with pytest.raises(ConfigError, match="fusion_visibilities"):
            self.check("noise-sweep", fusion_visibilities=cfg.fusion_visibilities)

    def test_tabulated_needs_existing_csv(self, tmp_path):
        with pytest.raises(ConfigError, match="model_csv"):
            self.check(model_kind="tabulated")
        with pytest.raises(ConfigError, match="not found"):
            self.check(model_kind="tabulated", model_csv=str(tmp_path / "x.csv"))
        table = tmp_path / "gamma.csv"
        table.write_text("t,gamma\n1.0,0.5\n")
        self.check(model_kind="tabulated", model_csv=str(table))

    def test_witness_sources(self):
        with pytest.raises(ConfigError, match="witness_value"):
            self.check("witness")
        self.check("witness", witness_value=-0.7)
        self.check("witness", fusion_visibility=0.9, n_values=(2, 3))
        self.check("witness", x_expectation=0.8, p_all_zero=0.45,
                   p_all_one=0.44)
        with pytest.raises(ConfigError, match="go together"):
            self.check("witness", x_expectation=0.8)
        with pytest.raises(ConfigError, match="go together"):
            self.check("witness", p_all_zero=0.4, p_all_one=0.4)
        with pytest.raises(ConfigError, match="2 qubits"):
            self.check("witness", fusion_visibility=0.9, n_values=(1, 2))
        with pytest.raises(ConfigError, match=r"\[0, 1\]"):
            self.check("witness", x_expectation=0.8, p_all_zero=1.5,
                       p_all_one=0.4)


def test_annotation_without_parser_is_rejected():
    assert config._parser_for("seed", int | None) is config._parse_int
    for hint in (bool, int | float, tuple[str, ...] | None):
        with pytest.raises(TypeError, match="no parser"):
            config._parser_for("flag", hint)


# Values the INI format carries: stripped one-line words that do not read as
# "none", finite floats, non-empty lists.
_WORDS = st.text("abcdefghijklmnopqrstuvwxyz0123456789._/-", min_size=1,
                 max_size=12).filter(lambda w: w != "none")
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_INTS = st.integers(-2**63, 2**64)
_FIELD_VALUES = {
    "strategy": _WORDS,
    "n_values": st.lists(_INTS, min_size=1, max_size=4).map(tuple),
    "model_kind": _WORDS, "model_coefficient": _FLOATS, "model_csv": _WORDS,
    "markovian_rate": _FLOATS, "interrogation_time": _WORDS,
    "shots_per_setting": _INTS, "theta_points": _INTS, "trials": _INTS,
    "seed": _INTS, "visibilities": st.lists(_FLOATS, min_size=1,
                                            max_size=4).map(tuple),
    "fusion_visibility": _FLOATS,
    "fusion_visibilities": st.lists(_FLOATS, min_size=1,
                                    max_size=4).map(tuple),
    "n_max": _INTS, "witness_value": _FLOATS, "x_expectation": _FLOATS,
    "p_all_zero": _FLOATS, "p_all_one": _FLOATS, "waist_mm": _FLOATS,
    "table_csv": _WORDS, "mode": _WORDS, "out_dir": _WORDS,
}


@st.composite
def any_config(draw):
    values = {}
    for f in fields(ExperimentConfig):
        value = _FIELD_VALUES[f.name]
        if f.default is None:
            value = st.none() | value
        values[f.name] = draw(value)
    return ExperimentConfig(**values)


class TestSerialization:
    def test_all_fields_written_once(self):
        text = serialize_config(ExperimentConfig(), "fringe")
        lines = text.strip().splitlines()
        assert lines[0] == "[fringe]"
        keys = [line.split(" = ")[0] for line in lines[1:]]
        assert keys == [f.name for f in fields(ExperimentConfig)]

    def test_round_trip_is_identity(self):
        cases = [
            ExperimentConfig(),
            ExperimentConfig(strategy="product", seed=7, mode="montecarlo",
                             visibilities=(0.9, 0.8, 0.7),
                             n_values=(2, 4, 8), theta_points=33,
                             interrogation_time="0.125",
                             witness_value=-0.7052),
        ]
        for cfg in cases:
            text = serialize_config(cfg, "scaling")
            assert parse_config_text(text)["scaling"] == cfg
            assert serialize_config(parse_config_text(text)["scaling"],
                                    "scaling") == text

    @settings(max_examples=100, deadline=None)
    @given(cfg=any_config(), section=st.sampled_from(SUBCOMMANDS))
    def test_parse_of_serialized_config_is_a_fixed_point(self, cfg, section):
        text = serialize_config(cfg, section)
        back = parse_config_text(text)
        assert back == {section: cfg}
        assert serialize_config(back[section], section) == text

    def test_floats_survive_exactly(self):
        cfg = ExperimentConfig(model_coefficient=1.0 / 3.0,
                               markovian_rate=math.exp(-0.5))
        back = parse_config_text(serialize_config(cfg, "fringe"))["fringe"]
        assert back.model_coefficient == cfg.model_coefficient
        assert back.markovian_rate == cfg.markovian_rate


class TestHash:
    def test_out_dir_excluded(self):
        a = ExperimentConfig(out_dir="run1")
        b = ExperimentConfig(out_dir="run2")
        assert config_hash(a, "scaling") == config_hash(b, "scaling")

    def test_everything_else_included(self):
        base = ExperimentConfig()
        assert config_hash(base, "scaling") != config_hash(
            ExperimentConfig(seed=1), "scaling")
        assert config_hash(base, "scaling") != config_hash(base, "fringe")
        assert config_hash(base, "scaling") != config_hash(
            ExperimentConfig(shots_per_setting=10), "scaling")

    def test_stable_format(self):
        digest = config_hash(ExperimentConfig(), "fringe")
        assert len(digest) == 64
        assert all(c in "0123456789abcdef" for c in digest)


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.ini", "fringe")

    def test_absent_section_gives_defaults(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[witness]\nwitness_value = -0.7\n")
        cfg = load_config(path, "fringe")
        assert cfg == ExperimentConfig()

    def test_no_file_at_all(self):
        assert load_config(None, "fringe") == ExperimentConfig()

    def test_overrides(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[fringe]\nseed = 1\nmode = montecarlo\n")
        cfg = load_config(path, "fringe",
                          overrides={"seed": 99, "out_dir": "elsewhere",
                                     "mode": None})
        assert cfg.seed == 99
        assert cfg.out_dir == "elsewhere"
        assert cfg.mode == "montecarlo"

    def test_unknown_override(self):
        with pytest.raises(ConfigError, match="override"):
            load_config(None, "fringe", overrides={"qubits": 3})

    def test_validation_applied(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[scaling]\ntrials = 10\n")
        with pytest.raises(ConfigError, match="trials"):
            load_config(path, "scaling")

    def test_unknown_subcommand(self):
        with pytest.raises(ConfigError, match="subcommand"):
            load_config(None, "tomography")
