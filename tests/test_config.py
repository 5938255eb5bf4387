"""Configuration parsing, validation, canonical serialization, hashing."""

import hashlib
import math
import typing
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zenometry.config as config
from zenometry import (
    CONFIG_TYPES,
    ConfigError,
    config_hash,
    load_config,
    parse_config_text,
    serialize_config,
)
from zenometry.config import (
    CalibrationConfig,
    CompareConfig,
    FringeConfig,
    NoiseSweepConfig,
    ScalingConfig,
    WitnessConfig,
)

# The keys each subcommand's handler reads, and no others.
KEYS = {
    "fringe": {"n_values", "strategy", "visibilities", "interrogation_time",
               "model_kind", "model_coefficient", "model_csv", "mode", "seed",
               "shots_per_setting", "theta_points"},
    "compare-markovian": {"n_values", "model_kind", "model_coefficient",
                          "model_csv", "markovian_rate", "mode", "seed",
                          "shots_per_setting", "theta_points", "trials"},
    "noise-sweep": {"model_kind", "model_coefficient", "fusion_visibilities",
                    "n_max"},
    "witness": {"n_values", "witness_value", "x_expectation", "p_all_zero",
                "p_all_one", "fusion_visibility"},
    "channel-calibration": {"waist_mm", "table_csv"},
}
KEYS["scaling"] = KEYS["fringe"] | {"trials"}


def test_each_type_holds_its_commands_keys():
    assert list(CONFIG_TYPES) == ["fringe", "scaling", "compare-markovian",
                                  "noise-sweep", "witness",
                                  "channel-calibration"]
    assert {section: {f.name for f in fields(cls)}
            for section, cls in CONFIG_TYPES.items()} == KEYS
    # 45 hashed settable values in all
    assert sum(map(len, KEYS.values())) == 45


class TestParsing:
    def test_defaults(self):
        cfg = FringeConfig()
        assert cfg.strategy == "ghz"
        assert cfg.n_values == (1, 2, 3, 4, 5, 6)
        assert cfg.model_kind == "quadratic"
        assert cfg.model_coefficient == 1.0
        assert cfg.interrogation_time == "opt"
        assert cfg.shots_per_setting == 1_000_000
        assert cfg.seed is None
        assert cfg.mode == "analytic"
        assert CompareConfig().markovian_rate == pytest.approx(math.exp(-0.5),
                                                               rel=1e-15)
        assert ScalingConfig().trials == CompareConfig().trials == 200
        assert NoiseSweepConfig().n_max == 1000
        assert CalibrationConfig().waist_mm == 1.05

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
        assert type(cfg) is ScalingConfig
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
        # the output directory is the --out flag, not a key
        with pytest.raises(ConfigError, match=r"\[witness\] out_dir: unknown key"):
            parse_config_text("[witness]\nout_dir = results\n")

    def test_other_commands_keys_are_dropped_unread(self):
        # unparseable and out-of-range values too: nothing reads them
        text = ("[witness]\nwitness_value = -0.5\nshots_per_setting = many\n"
                "strategy = product\nseed = -1\n"
                "[noise-sweep]\ntrials = 50\nmode = montecarlo\n")
        configs = parse_config_text(text)
        assert configs == {"witness": WitnessConfig(witness_value=-0.5),
                           "noise-sweep": NoiseSweepConfig()}

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

    def test_range_length_checked_before_expansion(self):
        limit = config.QUBITS_LIMIT
        assert parse_config_text(f"[fringe]\nn_values = 1..{limit}\n")[
            "fringe"].n_values == tuple(range(1, limit + 1))
        for text in (f"1..{limit + 1}", "0..1000000000000"):
            with pytest.raises(ConfigError, match=rf"\[fringe\] n_values: range "
                               f"'{text}' holds more than {limit} values"):
                parse_config_text(f"[fringe]\nn_values = {text}\n")

    def test_malformed_ini(self):
        with pytest.raises(ConfigError, match="malformed"):
            parse_config_text("strategy = ghz\n")  # key before any section


class TestValidation:
    @staticmethod
    def check(section="fringe", **changes):
        load_config(None, section, overrides=changes)

    def test_defaults_pass_everywhere_except_witness(self):
        for section in ("fringe", "scaling", "compare-markovian",
                        "noise-sweep", "channel-calibration"):
            self.check(section)
        with pytest.raises(ConfigError, match=r"\[witness\] witness_value"):
            self.check("witness")

    def test_field_path_in_message(self):
        with pytest.raises(ConfigError, match=r"\[scaling\] trials"):
            self.check("scaling", trials=50)
        with pytest.raises(ConfigError, match=r"\[compare-markovian\] trials"):
            self.check("compare-markovian", trials=99)

    def test_choices(self):
        with pytest.raises(ConfigError, match="strategy"):
            self.check(strategy="cat")
        with pytest.raises(ConfigError, match="mode"):
            self.check(mode="exact")
        with pytest.raises(ConfigError, match="model_kind"):
            self.check(model_kind="cubic")

    def test_montecarlo_needs_seed(self):
        for section in ("fringe", "scaling", "compare-markovian"):
            with pytest.raises(ConfigError, match=rf"\[{section}\] seed"):
                self.check(section, mode="montecarlo")
            self.check(section, mode="montecarlo", seed=7)
        # the other commands never sample: they hold no mode and no seed
        for cls in (NoiseSweepConfig, WitnessConfig, CalibrationConfig):
            assert not {"mode", "seed"} & {f.name for f in fields(cls)}

    def test_numeric_domains(self):
        with pytest.raises(ConfigError, match="n_values"):
            self.check(n_values=(0, 1))
        with pytest.raises(ConfigError, match="model_coefficient"):
            self.check(model_coefficient=0.0)
        with pytest.raises(ConfigError, match=r"\[noise-sweep\] model_coefficient"):
            self.check("noise-sweep", model_coefficient=-1.0)
        with pytest.raises(ConfigError, match="shots_per_setting"):
            self.check(shots_per_setting=0)
        with pytest.raises(ConfigError, match="theta_points"):
            self.check(theta_points=3)
        with pytest.raises(ConfigError, match="seed"):
            self.check(seed=2**64)
        with pytest.raises(ConfigError, match="markovian_rate"):
            self.check("compare-markovian", markovian_rate=0.0)
        for waist in (0.0, 1e-320):
            with pytest.raises(ConfigError, match="waist_mm"):
                self.check("channel-calibration", waist_mm=waist)
        with pytest.raises(ConfigError, match="interrogation_time"):
            self.check(interrogation_time="-1.0")
        with pytest.raises(ConfigError, match="interrogation_time"):
            self.check(interrogation_time="later")
        self.check(interrogation_time="0.25")
        self.check(interrogation_time="0")
        with pytest.raises(ConfigError, match="must be positive for scaling"):
            self.check("scaling", interrogation_time="0")

    def test_n_max_budget(self):
        self.check("noise-sweep", n_max=1)
        self.check("noise-sweep", n_max=config.N_MAX_LIMIT)
        for n_max in (0, config.N_MAX_LIMIT + 1):
            with pytest.raises(ConfigError, match=r"\[noise-sweep\] n_max"):
                self.check("noise-sweep", n_max=n_max)

    @pytest.mark.parametrize("section, key, lo, hi", [
        ("fringe", "theta_points", 5, config.THETA_POINTS_LIMIT),
        ("scaling", "trials", 100, config.TRIALS_LIMIT),
        ("compare-markovian", "trials", 100, config.TRIALS_LIMIT),
        ("fringe", "shots_per_setting", 1, config.SHOTS_LIMIT),
    ])
    def test_size_caps(self, section, key, lo, hi):
        self.check(section, **{key: lo})
        self.check(section, **{key: hi})
        for value in (lo - 1, hi + 1):
            with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: "
                               rf"must lie in \[{lo}, {hi}\]"):
                self.check(section, **{key: value})

    def test_qubit_cap(self):
        for section in ("fringe", "scaling", "compare-markovian", "witness"):
            with pytest.raises(ConfigError, match=rf"\[{section}\] n_values: every "
                               rf"qubit count must lie in \[1, {config.QUBITS_LIMIT}\]"):
                self.check(section, n_values=(2, config.QUBITS_LIMIT + 1))
        self.check("fringe", n_values=(1, config.QUBITS_LIMIT))
        # the default grid of the largest N, and the largest explicit grid
        assert config.THETA_POINTS_LIMIT == 4 * config.QUBITS_LIMIT + 1

    def test_model_families_per_command(self):
        with pytest.raises(ConfigError, match=r"\[noise-sweep\] model_kind: "
                           "sweep bounds assume the quadratic family"):
            self.check("noise-sweep", model_kind="markovian")
        with pytest.raises(ConfigError, match=r"\[compare-markovian\] model_kind: "
                           "the test channel must not itself be markovian"):
            self.check("compare-markovian", model_kind="markovian")
        self.check("fringe", model_kind="markovian")
        self.check("scaling", model_kind="markovian")

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
        with pytest.raises(ConfigError, match=r"\[channel-calibration\] table_csv"):
            self.check("channel-calibration", table_csv=str(tmp_path / "x.csv"))

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
        with pytest.raises(ConfigError, match="fusion_visibility"):
            self.check("witness", fusion_visibility=1.5, n_values=(2, 3))
        with pytest.raises(ConfigError, match=r"\[witness\] n_values"):
            self.check("witness", witness_value=-0.7, n_values=(0,))


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
_FLOAT_LISTS = st.lists(_FLOATS, min_size=1, max_size=4).map(tuple)
_HINT_VALUES = {
    str: _WORDS, int: _INTS, float: _FLOATS,
    tuple[int, ...]: st.lists(_INTS, min_size=1, max_size=4).map(tuple),
    tuple[float, ...]: _FLOAT_LISTS,
}


@st.composite
def any_section(draw):
    """A subcommand and an instance of its type with arbitrary values."""
    section = draw(st.sampled_from(list(CONFIG_TYPES)))
    cls = CONFIG_TYPES[section]
    hints = typing.get_type_hints(cls)
    values = {}
    for f in fields(cls):
        hint = hints[f.name]
        if f.default is None:
            (hint,) = set(typing.get_args(hint)) - {type(None)}
            values[f.name] = draw(st.none() | _HINT_VALUES[hint])
        else:
            values[f.name] = draw(_HINT_VALUES[hint])
    return section, cls(**values)


class TestSerialization:
    def test_all_fields_written_once(self):
        for section, cls in CONFIG_TYPES.items():
            text = serialize_config(cls(), section)
            lines = text.strip().splitlines()
            assert lines[0] == f"[{section}]"
            keys = [line.split(" = ")[0] for line in lines[1:]]
            assert keys == [f.name for f in fields(cls)]

    def test_round_trip_is_identity(self):
        cases = [
            ("scaling", ScalingConfig()),
            ("scaling", ScalingConfig(strategy="product", seed=7,
                                      mode="montecarlo",
                                      visibilities=(0.9, 0.8, 0.7),
                                      n_values=(2, 4, 8), theta_points=33,
                                      interrogation_time="0.125")),
            ("witness", WitnessConfig(witness_value=-0.7052)),
            ("channel-calibration", CalibrationConfig(table_csv="t.csv")),
        ]
        for section, cfg in cases:
            text = serialize_config(cfg, section)
            assert parse_config_text(text)[section] == cfg
            assert serialize_config(parse_config_text(text)[section],
                                    section) == text

    @settings(max_examples=200, deadline=None)
    @given(case=any_section())
    def test_parse_of_serialized_config_is_a_fixed_point(self, case):
        section, cfg = case
        text = serialize_config(cfg, section)
        back = parse_config_text(text)
        assert back == {section: cfg}
        assert serialize_config(back[section], section) == text

    def test_floats_survive_exactly(self):
        cfg = CompareConfig(model_coefficient=1.0 / 3.0,
                            markovian_rate=math.exp(-0.5))
        text = serialize_config(cfg, "compare-markovian")
        back = parse_config_text(text)["compare-markovian"]
        assert back.model_coefficient == cfg.model_coefficient
        assert back.markovian_rate == cfg.markovian_rate


class TestHash:
    def test_out_dir_excluded(self):
        # the output directory is no key, so the hash is the digest of the
        # serialization as it is
        for section, cls in CONFIG_TYPES.items():
            text = serialize_config(cls(), section)
            assert "out_dir" not in text
            assert config_hash(cls(), section) == hashlib.sha256(
                text.encode()).hexdigest()

    def test_everything_else_included(self):
        base = ScalingConfig()
        assert config_hash(base, "scaling") != config_hash(
            ScalingConfig(seed=1), "scaling")
        assert config_hash(FringeConfig(), "scaling") != config_hash(
            FringeConfig(), "fringe")
        assert config_hash(base, "scaling") != config_hash(
            ScalingConfig(shots_per_setting=10), "scaling")
        assert config_hash(base, "scaling") != config_hash(
            ScalingConfig(trials=300), "scaling")

    def test_other_commands_keys_leave_the_hash_alone(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[witness]\nwitness_value = -0.7\n")
        plain = load_config(path, "witness")
        path.write_text("[witness]\nwitness_value = -0.7\n"
                        "shots_per_setting = 7\nstrategy = product\n")
        assert load_config(path, "witness") == plain

    def test_stable_format(self):
        digest = config_hash(FringeConfig(), "fringe")
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
        assert cfg == FringeConfig()

    def test_no_file_at_all(self):
        for section, cls in CONFIG_TYPES.items():
            if section != "witness":
                assert load_config(None, section) == cls()

    def test_overrides(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[fringe]\nseed = 1\nmode = montecarlo\n")
        cfg = load_config(path, "fringe", overrides={"seed": 99, "mode": None})
        assert cfg.seed == 99
        assert cfg.mode == "montecarlo"

    def test_unknown_override(self):
        # overrides are fields of the section's type; the command line
        # offers a flag only for those
        with pytest.raises(TypeError, match="seed"):
            load_config(None, "witness", overrides={"seed": 3})

    def test_validation_applied(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[scaling]\ntrials = 10\n")
        with pytest.raises(ConfigError, match="trials"):
            load_config(path, "scaling")

    def test_unknown_subcommand(self):
        with pytest.raises(ConfigError, match="subcommand"):
            load_config(None, "tomography")
