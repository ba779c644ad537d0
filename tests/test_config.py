"""The config file boundary: one schema for load, echo and type checks."""

import json
import math
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corridorsim.allocator import BeamCodebook
from corridorsim.antenna import AntennaConfig
from corridorsim.channel import ChannelProviderSpec, RfConstants
from corridorsim.errors import ConfigurationError
from corridorsim.geometry import BaseStationSite, CorridorSpec, Position3D
from corridorsim.harness import (
    ALLOCATION_CHANNELS,
    ALLOCATORS,
    ScenarioConfig,
    config_digest,
    config_from_dict,
    config_to_dict,
    validate_config,
)

README = Path(__file__).resolve().parents[1] / "README.md"
DEFAULT_ECHO = config_to_dict(ScenarioConfig())


class TestSchema:
    def test_empty_document_is_the_default(self):
        assert config_to_dict(config_from_dict({})) == DEFAULT_ECHO
        assert validate_config(ScenarioConfig()) == []

    def test_partial_section_keeps_the_other_defaults(self):
        cfg = config_from_dict({"channel_lf": {"ray_count": 50}, "corridor": {"radius_m": 150}})
        assert cfg.channel_lf == ChannelProviderSpec(kind="few_ray", ray_count=50)
        assert cfg.corridor == replace(CorridorSpec(), radius=150.0)
        assert cfg.channel_hf == ScenarioConfig().channel_hf

    def test_site_defaults(self):
        cfg = config_from_dict(
            {"bss": [{"x_m": 400.0, "boresight_deg": None}, {"id": 1, "boresight_deg": 90.0}]}
        )
        first, second = cfg.bss
        assert first.id == 1 and second.id == 1  # a missing id is index + 1
        assert first.position == Position3D(400.0, 0.0, 25.0)
        assert first.boresight_azimuth == pytest.approx(math.atan2(200.0, -200.0))
        assert second.boresight_azimuth == math.radians(90.0)
        assert any("ids must be unique" in p for p in validate_config(cfg))

    def test_empty_site_list_is_reported(self):
        problems = validate_config(config_from_dict({"bss": []}))
        assert "bss must list at least one site" in problems

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"uav_cont": 5}, "uav_cont"),
            ({"rf": {"carrier_ghz": 3.5}}, "rf.carrier_ghz"),
            ({"corridor": {"seed": 1}}, "corridor.seed"),
            ({"bss": [{"x_m": 0.0}, {"hight": 3}]}, "bss[1].hight"),
            ({"bss": [{"annealer": 3}]}, "bss[0].annealer"),
        ],
    )
    def test_unknown_key_is_rejected(self, doc, key):
        with pytest.raises(ConfigurationError, match=re.escape(f"unknown config key {key!r}")):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"uav_count": 2.7}, "uav_count must be an integer, got 2.7"),
            ({"uav_count": 20.0}, "uav_count must be an integer, got 20.0"),
            ({"uav_count": True}, "uav_count must be an integer, got True"),
            ({"split_power_among_beams": "false"}, "split_power_among_beams must be true or"),
            ({"split_power_among_beams": 0}, "split_power_among_beams must be true or false"),
            ({"rf": {"tx_power_w": "10"}}, "rf.tx_power_w must be a number, got '10'"),
            ({"rf": {"tx_power_w": False}}, "rf.tx_power_w must be a number"),
            ({"antenna": {"tilt_deg": None}}, "antenna.tilt_deg must be a number"),
            ({"allocator": 2}, "allocator must be a string"),
            ({"channel_hf": {"import_path": 3}}, "import_path must be a string or null"),
            ({"bss": [{"id": 1.0}]}, "bss[0].id must be an integer"),
            ({"bss": [{"z_m": "25"}]}, "bss[0].z_m must be a number"),
            ({"rf": [1]}, "rf must be a JSON object"),
            ({"bss": {"a": 1}}, "bss must be a list"),
            ({"bss": [5]}, "bss[0] must be a JSON object"),
            ({"rf": {"carrier_hz": 10**400}}, "rf.carrier_hz is out of range"),
        ],
    )
    def test_wrong_json_type_names_the_key(self, doc, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            config_from_dict(doc)

    def test_document_must_be_an_object(self):
        with pytest.raises(ConfigurationError, match="config must be a JSON object"):
            config_from_dict([])


# The config echo of a 4-UAV nominal run, as results.json held it while the
# evaluator still read `num_rrbs` and `beta_reading`.
OLD_ECHO = """{
  "allocation_channel": "hf", "allocator": "two_stage",
  "antenna": {"a_m_db": 30.0, "d_h_wavelengths": 0.5, "d_v_wavelengths": 0.5,
              "g_e_max_dbi": -8.0, "gain_floor_db": -400.0, "n_h": 4, "n_v": 4,
              "phi_3db_deg": 90.0, "sl_av_db": 30.0, "theta_3db_deg": 65.0,
              "tilt_deg": 14.999999999999998},
  "beta_reading": "interferer",
  "bss": [{"boresight_deg": 45.0, "id": 1, "x_m": 0.0, "y_m": 0.0, "z_m": 25.0},
          {"boresight_deg": 135.0, "id": 2, "x_m": 400.0, "y_m": 0.0, "z_m": 25.0},
          {"boresight_deg": -135.0, "id": 3, "x_m": 400.0, "y_m": 400.0, "z_m": 25.0},
          {"boresight_deg": -45.0, "id": 4, "x_m": 0.0, "y_m": 400.0, "z_m": 25.0}],
  "channel_hf": {"import_path": null, "kind": "statistical", "ray_count": 1000000,
                 "rician_k_db": 3.0},
  "channel_lf": {"import_path": null, "kind": "few_ray", "ray_count": 100, "rician_k_db": 3.0},
  "codebook": {"n_beams": 16},
  "corridor": {"altitude_m": 100.0, "center_x_m": 200.0, "center_y_m": 200.0,
               "radius_m": 200.0},
  "num_rrbs": 1, "replications": 1,
  "rf": {"bandwidth_hz": 30000000.0, "carrier_hz": 3500000000.0, "noise_power_w": 0.3,
         "tx_power_w": 10.0},
  "seed": 0, "split_power_among_beams": false, "uav_count": 4
}"""


class TestRetiredEvaluationKeys:
    """`num_rrbs` and `beta_reading` load only at the one value the evaluator uses."""

    def test_pinned_values_load_and_leave_the_echo(self):
        cfg = config_from_dict({"num_rrbs": 1, "beta_reading": "interferer"})
        echo = config_to_dict(cfg)
        assert "num_rrbs" not in echo and "beta_reading" not in echo
        assert echo == DEFAULT_ECHO

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"num_rrbs": 4}, "num_rrbs is retired and loads only as 1, got 4"),
            ({"num_rrbs": 1.0}, "num_rrbs is retired and loads only as 1, got 1.0"),
            ({"num_rrbs": True}, "num_rrbs is retired and loads only as 1, got True"),
            (
                {"beta_reading": "victim"},
                "beta_reading is retired and loads only as \"interferer\", got 'victim'",
            ),
        ],
    )
    def test_other_values_raise_naming_the_key(self, doc, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            config_from_dict(doc)

    def test_an_old_results_echo_loads(self):
        old = json.loads(OLD_ECHO)
        cfg = config_from_dict(old)
        assert validate_config(cfg) == []
        del old["num_rrbs"], old["beta_reading"]
        assert config_to_dict(cfg) == old


class TestRetiredChannelSeeds:
    """Channel seeds derive from `seed`; the old per-provider keys load and are ignored."""

    def test_old_seed_keys_load_and_leave_the_echo(self):
        cfg = config_from_dict({"channel_hf": {"seed": 5}, "channel_lf": {"seed": 7}})
        assert config_to_dict(cfg) == DEFAULT_ECHO

    def test_a_provider_spec_holds_no_seed(self):
        assert "seed" not in ChannelProviderSpec.__dataclass_fields__
        with pytest.raises(TypeError):
            ChannelProviderSpec(seed=1)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

finite = st.floats(-1e9, 1e9)
positive = st.floats(1e-6, 1e12)
# Rician K in dB whose linear value 10^(K/10) is a finite, positive float.
rician_k_dbs = st.floats(-3000.0, 3000.0)


def radians_of(lo, hi):
    """Angles drawn in degrees, as every loaded config holds them.

    A radian value with no exact degree twin can move by one ulp on its first
    trip through the file (degrees(radians(degrees(t))) != degrees(t) for
    ~5% of uniform t); a loaded value is a fixed point from then on.
    """
    return st.floats(lo, hi).map(math.radians)


providers = st.one_of(
    st.builds(
        ChannelProviderSpec,
        kind=st.sampled_from(["few_ray", "statistical"]),
        ray_count=st.integers(1, 10**7),
        rician_k_db=rician_k_dbs,
        import_path=st.none() | st.text(),
    ),
    st.builds(
        ChannelProviderSpec,
        kind=st.just("import"),
        ray_count=st.integers(1, 10**7),
        rician_k_db=rician_k_dbs,
        import_path=st.text(min_size=1),
    ),
)


@st.composite
def scenario_configs(draw):
    places = draw(
        st.lists(
            st.tuples(finite, finite, st.floats(0.0, 1e4), radians_of(-720.0, 720.0)),
            min_size=1,
            max_size=6,
        )
    )
    bss = [
        BaseStationSite(i + 1, Position3D(x, y, z), boresight)
        for i, (x, y, z, boresight) in enumerate(places)
    ]
    n_beams = draw(st.integers(1, 64))
    return ScenarioConfig(
        rf=RfConstants(*(draw(positive) for _ in range(4))),
        antenna=AntennaConfig(
            n_h=draw(st.integers(1, 16)),
            n_v=draw(st.integers(1, 16)),
            d_h=draw(positive),
            d_v=draw(positive),
            g_e_max_dbi=draw(finite),
            theta_3db=draw(radians_of(1e-3, 360.0)),
            phi_3db=draw(radians_of(1e-3, 360.0)),
            a_m_db=draw(positive),
            sl_av_db=draw(positive),
            theta_tilt=draw(radians_of(-90.0, 90.0)),
            gain_floor_db=draw(finite),
        ),
        codebook=BeamCodebook(n_beams),
        bss=bss,
        corridor=CorridorSpec(Position3D(draw(finite), draw(finite), 0.0), draw(positive),
                              draw(positive)),
        uav_count=draw(st.integers(1, len(bss) * n_beams)),
        channel_hf=draw(providers),
        channel_lf=draw(providers),
        allocator=draw(st.sampled_from(ALLOCATORS)),
        allocation_channel=draw(st.sampled_from(ALLOCATION_CHANNELS)),
        seed=draw(st.integers(-(2**70), 2**70)),
        replications=draw(st.integers(1, 100)),
        split_power_among_beams=draw(st.booleans()),
    )


@settings(max_examples=200, deadline=None)
@given(scenario_configs())
def test_valid_config_survives_the_file_round_trip(cfg):
    assert validate_config(cfg) == []
    echo = config_to_dict(cfg)
    back = config_from_dict(json.loads(json.dumps(echo)))
    assert config_to_dict(back) == echo
    assert config_digest(back) == config_digest(cfg)


json_leaves = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
# Keys mostly drawn from the schema and the retired keys, so documents get past
# the unknown-key check and reach the type checks.
inner_names = sorted({k for v in DEFAULT_ECHO.values() if isinstance(v, dict) for k in v})
site_names = sorted(DEFAULT_ECHO["bss"][0])
sites = st.lists(
    st.dictionaries(st.sampled_from([*site_names, "seed"]), json_leaves, max_size=5)
    | json_values,
    max_size=3,
)
documents = st.dictionaries(
    st.sampled_from(
        [*DEFAULT_ECHO, "annealer", "evaluation_channel", "num_rrbs", "beta_reading", "bogus"]
    ),
    st.dictionaries(st.sampled_from([*inner_names, "seed", "tilt_deg"]), json_leaves, max_size=6)
    | sites
    | json_values,
    max_size=8,
)


@settings(max_examples=500, deadline=None)
@given(documents | json_values)
def test_any_document_loads_or_raises_configuration_error(doc):
    try:
        cfg = config_from_dict(doc)
    except ConfigurationError:
        return
    assert isinstance(validate_config(cfg), list)


# ---------------------------------------------------------------------------
# README
# ---------------------------------------------------------------------------


def test_readme_config_block_shows_every_key_at_its_default():
    section = README.read_text().split("## Scenario config (JSON)", 1)[1]
    shown = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    example_sites = shown.pop("bss")
    # config_from_dict rejects a key outside the schema, so every key shown is
    # a schema key, and each value shown must load to the default
    assert config_to_dict(config_from_dict(shown)) == DEFAULT_ECHO
    config_from_dict({"bss": example_sites})
    # ... and every schema key is shown
    assert shown.keys() == DEFAULT_ECHO.keys() - {"bss"}
    for section, value in shown.items():
        if isinstance(value, dict):
            assert value.keys() == DEFAULT_ECHO[section].keys(), section
    assert [site.keys() for site in example_sites] == [DEFAULT_ECHO["bss"][0].keys()]
