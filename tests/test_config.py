"""The config file boundary: one schema for load, echo and type checks."""

import json
import math
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corridorsim import harness
from corridorsim.allocator import MAX_ARRAY_SIDE, MAX_D_H_WAVELENGTHS, BeamCodebook
from corridorsim.antenna import AntennaConfig
from corridorsim.channel import ChannelProviderSpec, RfConstants
from corridorsim.cli import main as cli_main
from corridorsim.errors import ConfigurationError
from corridorsim.geometry import BaseStationSite, CorridorSpec, Position3D
from corridorsim.harness import (
    ALLOCATION_CHANNELS,
    ALLOCATORS,
    ScenarioConfig,
    config_digest,
    config_from_dict,
    config_to_dict,
    emit_reports,
    run_scenario,
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
        assert cfg.lf_ray_count == 50
        assert cfg.corridor == replace(CorridorSpec(), radius=150.0)
        assert cfg.channel_hf == ScenarioConfig().channel_hf

    def test_site_defaults(self):
        cfg = config_from_dict(
            {"bss": [{"x_m": 400.0, "boresight_deg": None}, {"id": 1, "boresight_deg": 90.0}]}
        )
        first, second = cfg.bss
        assert first.id == 1 and second.id == 1  # a missing id is index + 1
        assert first.position == Position3D(400.0, 0.0, 25.0)
        assert first.boresight_deg == math.degrees(math.atan2(200.0, -200.0))
        assert second.boresight_deg == 90.0
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

    def test_validation_names_the_file_key_and_the_file_value(self):
        doc = {
            "antenna": {"theta_3db_deg": -10, "d_h_wavelengths": -0.5},
            "channel_lf": {"ray_count": 0},
        }
        assert validate_config(config_from_dict(doc)) == [
            "antenna.d_h_wavelengths must be positive, got -0.5",
            "antenna.theta_3db_deg must be positive, got -10.0",
            "channel_lf.ray_count must be >= 1, got 0",
        ]


# One case per schema row that carries a rule: (file key, a finite value the
# rule refuses, the message). A channel_hf key is set beside the kind that
# reads it, and a `bss[0].` key in the only site.
RULED = [
    ("uav_count", 0, "uav_count must be >= 1, got 0"),
    ("replications", 0, "replications must be >= 1, got 0"),
    ("allocator", "greedy",
     "allocator must be one of ('two_stage', 'random', 'closest_bs'), got 'greedy'"),
    ("allocation_channel", "import",
     "allocation_channel must be one of ('hf', 'lf', 'statistical'), got 'import'"),
    ("rf.carrier_hz", 0, "rf.carrier_hz must be positive, got 0.0"),
    ("rf.bandwidth_hz", -3e7, "rf.bandwidth_hz must be positive, got -30000000.0"),
    ("rf.tx_power_w", 0, "rf.tx_power_w must be positive, got 0.0"),
    ("rf.noise_power_w", -0.3, "rf.noise_power_w must be positive, got -0.3"),
    ("antenna.n_h", 0, "antenna.n_h must be >= 1, got 0"),
    ("antenna.n_v", -1, "antenna.n_v must be >= 1, got -1"),
    ("antenna.d_h_wavelengths", 0, "antenna.d_h_wavelengths must be positive, got 0.0"),
    ("antenna.d_v_wavelengths", -0.5, "antenna.d_v_wavelengths must be positive, got -0.5"),
    ("antenna.theta_3db_deg", 0, "antenna.theta_3db_deg must be positive, got 0.0"),
    ("antenna.phi_3db_deg", -90, "antenna.phi_3db_deg must be positive, got -90.0"),
    ("antenna.a_m_db", 0, "antenna.a_m_db must be positive, got 0.0"),
    ("antenna.sl_av_db", -30, "antenna.sl_av_db must be positive, got -30.0"),
    ("codebook.n_beams", 0, "codebook.n_beams must be >= 1, got 0"),
    ("corridor.radius_m", 0, "corridor.radius_m must be positive, got 0.0"),
    ("corridor.altitude_m", -100, "corridor.altitude_m must be positive, got -100.0"),
    ("channel_hf.kind", "ray_tracing",
     "channel_hf.kind must be few_ray|statistical|import, got 'ray_tracing'"),
    ("channel_hf.ray_count", 0, "channel_hf.ray_count must be >= 1, got 0"),
    ("channel_hf.rician_k_db", 4000,
     "channel_hf.rician_k_db must have a finite, positive linear value, got 4000.0 dB"),
    ("channel_hf.import_path", None, "channel_hf.import_path is required for kind 'import'"),
    ("channel_lf.ray_count", 0, "channel_lf.ray_count must be >= 1, got 0"),
    ("bss[0].z_m", -25, "bss[0].z_m must be >= 0, got -25.0"),
]
KIND_READING = {"channel_hf.ray_count": "few_ray", "channel_hf.import_path": "import"}


def file_doc(key: str, value) -> dict:
    """The config file that sets dotted file `key` to `value` and keeps every other default."""
    if key.startswith("bss[0]."):
        return {"bss": [{key.removeprefix("bss[0]."): value}]}
    section, _, name = key.rpartition(".")
    if not section:
        return {key: value}
    doc = {section: {name: value}}
    if key in KIND_READING:
        doc[section]["kind"] = KIND_READING[key]
    return doc


def echo_value(key: str, value):
    """The echo's value of file `key` once `file_doc(key, value)` is loaded."""
    echo = config_to_dict(config_from_dict(file_doc(key, value)))
    section, _, name = key.rpartition(".")
    if section == "bss[0]":
        return echo["bss"][0][name]
    return echo[section][name] if section else echo[key]


def named_key(problem: str) -> str:
    """The key a `validate_config` message names: its first word, less a colon."""
    return problem.split(" ", 1)[0].removesuffix(":")


def naming(problems: list[str], key: str) -> list[str]:
    return [problem for problem in problems if named_key(problem) == key]


def file_keys(echo: dict) -> set[str]:
    """Every dotted file key of a config echo, `bss[i].key` included."""
    keys = set()
    for name, value in echo.items():
        if isinstance(value, dict):
            keys |= {f"{name}.{key}" for key in value}
        elif isinstance(value, list):
            keys |= {f"{name}[{i}].{key}" for i, site in enumerate(value) for key in site}
        else:
            keys.add(name)
    return keys


class TestRules:
    """Each schema row's rule gives one message, in its file key's name."""

    @pytest.mark.parametrize("key, value, message", RULED, ids=[key for key, *_ in RULED])
    def test_every_ruled_key_names_itself(self, key, value, message):
        assert naming(validate_config(config_from_dict(file_doc(key, value))), key) == [message]

    def test_every_ruled_row_has_a_case(self):
        ruled = {f"{section}.{key}" if section else key
                 for section, table in harness._TABLES.items()
                 for key, (*_, rule) in table.items() if rule}
        ruled |= {f"bss[0].{key}" for key, (*_, rule) in harness._SITE_TABLE.items() if rule}
        assert ruled == {key for key, *_ in RULED}

    @pytest.mark.parametrize("bad", [-math.inf, math.inf, math.nan])
    @pytest.mark.parametrize(
        "key", [key for key, value, _ in RULED if isinstance(echo_value(key, value), float)]
    )
    def test_a_non_finite_value_gives_one_message(self, key, bad):
        # A range rule is not applied on top of the finite check: -inf was
        # also "must be positive" (or ">= 0"), and an infinite spacing also
        # broke the stage-1 bound on antenna.d_h_wavelengths.
        problems = validate_config(config_from_dict(file_doc(key, bad)))
        assert naming(problems, key) == [f"{key} must be finite, got {bad}"]

    def test_messages_come_in_echo_order_then_the_cross_key_checks(self):
        antenna = {"n_v": 0, "n_h": MAX_ARRAY_SIDE + 1}
        doc = {"uav_count": 0, "rf": {"tx_power_w": 0}, "antenna": antenna,
               "bss": [{"id": 2, "z_m": -1}], "channel_lf": {"ray_count": 0}}
        assert validate_config(config_from_dict(doc)) == [
            "uav_count must be >= 1, got 0",
            "rf.tx_power_w must be positive, got 0.0",
            "antenna.n_v must be >= 1, got 0",
            "channel_lf.ray_count must be >= 1, got 0",
            "bss[0].z_m must be >= 0, got -1.0",
            f"antenna.n_h must be <= {MAX_ARRAY_SIDE}, got {MAX_ARRAY_SIDE + 1}",
            "bss ids must be unique and contiguous from 1, got [2]",
        ]


# Keys that earlier versions read and this one refuses. README "Scenario
# config (JSON)" lists them; a file that carries one loads once it is deleted.
REFUSED_OLD_KEYS = [
    ({"evaluation_channel": "hf"}, "evaluation_channel"),
    ({"codebook": {"tilt_deg": 15.0}}, "codebook.tilt_deg"),
    ({"channel_hf": {"seed": 5}}, "channel_hf.seed"),
    ({"channel_lf": {"seed": 7}}, "channel_lf.seed"),
    ({"channel_lf": {"rician_k_db": 3.0}}, "channel_lf.rician_k_db"),
    ({"num_rrbs": 1}, "num_rrbs"),
    ({"beta_reading": "interferer"}, "beta_reading"),
    ({"channel_lf": {"import_path": None}}, "channel_lf.import_path"),
    ({"split_power_among_beams": False}, "split_power_among_beams"),
    ({"antenna": {"gain_floor_db": -400.0}}, "antenna.gain_floor_db"),
]
# The same keys are refused at any other value.
REFUSED_AT_OTHER_VALUES = [
    ({"split_power_among_beams": True}, "split_power_among_beams"),
    ({"antenna": {"gain_floor_db": 10.0}}, "antenna.gain_floor_db"),
]


class TestKeysOfEarlierVersions:
    """Of the keys earlier versions read, only `annealer` and `channel_lf.kind` still load."""

    @pytest.mark.parametrize(
        "doc, key",
        REFUSED_OLD_KEYS + REFUSED_AT_OTHER_VALUES,
        ids=[k for _, k in REFUSED_OLD_KEYS] + [f"{k}-other" for _, k in REFUSED_AT_OTHER_VALUES],
    )
    def test_is_an_unknown_key_at_the_value_runs_used(self, tmp_path, capsys, doc, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli_main(["validate-config", "--config", str(path)]) == 1
        assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 1
        line = f"error: cannot load config {path}: unknown config key {key!r}"
        assert capsys.readouterr().err.splitlines() == [line] * 2
        assert not out.exists()

    def test_the_benchmark_configs_load_and_carry_every_key_left(self, monkeypatch):
        monkeypatch.syspath_prepend(str(README.parent))
        from perfbench.test_perfbench import TINY
        from perfbench.workloads import WORKLOADS

        docs = [w.config for w in WORKLOADS.values()] + [TINY.config]
        for doc in docs:
            assert validate_config(config_from_dict(doc)) == []
        carried = set()
        for doc in docs:
            for section, value in doc.items():
                carried.add(section)
                if isinstance(value, dict):
                    carried |= {f"{section}.{key}" for key in value}
        # A key no benchmark config carries would be one no file needs.
        assert harness._RETIRED | harness._PINNED.keys() <= carried


class TestChannelLfIsItsRayCount:
    """`channel_lf` keeps only `ray_count`; its `kind` loads at the reading runs used."""

    def test_the_kind_loads_at_its_used_value_and_leaves_the_echo(self):
        doc = {"channel_lf": {"kind": "few_ray"}}
        assert config_to_dict(config_from_dict(doc)) == DEFAULT_ECHO
        assert DEFAULT_ECHO["channel_lf"] == {"ray_count": 100}

    def test_other_values_raise_naming_the_key(self):
        message = "channel_lf.kind is retired and loads only as \"few_ray\", got 'statistical'"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            config_from_dict({"channel_lf": {"kind": "statistical"}})


class TestChannelHfEchoesWhatItsKindReads:
    """`channel_hf` holds and echoes the keys its kind reads; another raises at any value."""

    @pytest.mark.parametrize(
        "spec, keys",
        [
            (ChannelProviderSpec(kind="statistical"), {"kind", "rician_k_db"}),
            (ChannelProviderSpec(kind="few_ray"), {"kind", "ray_count", "rician_k_db"}),
            (
                ChannelProviderSpec(kind="import", import_path="t.ctns"),
                {"kind", "rician_k_db", "import_path"},
            ),
        ],
    )
    def test_echo_holds_the_keys_the_kind_reads(self, spec, keys):
        echo = config_to_dict(ScenarioConfig(channel_hf=spec))
        assert echo["channel_hf"].keys() == keys
        assert config_from_dict(echo).channel_hf == spec

    @pytest.mark.parametrize(
        "hf, message",
        [
            ({"ray_count": 1_000_000}, "channel_hf.ray_count is not read by kind 'statistical'"),
            ({"import_path": None}, "channel_hf.import_path is not read by kind 'statistical'"),
            ({"ray_count": 0}, "channel_hf.ray_count is not read by kind 'statistical'"),
            (
                {"kind": "few_ray", "import_path": "t.ctns"},
                "channel_hf.import_path is not read by kind 'few_ray'",
            ),
            (
                {"kind": "import", "import_path": "t.ctns", "ray_count": 100},
                "channel_hf.ray_count is not read by kind 'import'",
            ),
        ],
        ids=["ray_count-default", "import_path-default", "ray_count", "import_path", "import"],
    )
    def test_unread_key_raises_naming_the_key_and_the_kind(self, hf, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            config_from_dict({"channel_hf": hf})

    def test_cli_ends_an_unread_key_at_its_default_with_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"channel_hf": {"kind": "statistical", "ray_count": 1000000}}))
        assert cli_main(["validate-config", "--config", str(path)]) == 1
        message = "channel_hf.ray_count is not read by kind 'statistical'"
        assert capsys.readouterr().err == f"error: cannot load config {path}: {message}\n"

    def test_ray_count_is_checked_only_where_it_is_read(self):
        unread = ChannelProviderSpec(kind="statistical", ray_count=0)
        assert validate_config(ScenarioConfig(channel_hf=unread)) == []
        read = ChannelProviderSpec(kind="few_ray", ray_count=0)
        assert validate_config(ScenarioConfig(channel_hf=read)) == [
            "channel_hf.ray_count must be >= 1, got 0"
        ]


class TestRetiredChannelSeeds:
    """Channel seeds derive from `seed`; the old per-provider keys are unknown keys."""

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


# An import spec holds a file name; the round trip makes that file, since
# validate_config requires an import path to name a regular file. A name is
# UTF-8 encodable, as every file name is; a lone surrogate names no file, and
# TestCli::test_run_missing_import_file covers it.
file_names = st.text(
    st.characters(codec="utf-8", exclude_characters="/\0"), min_size=1, max_size=40
).filter(lambda name: name not in (".", ".."))

# A spec sets only the keys its kind reads; the others stay at their defaults.
providers = st.one_of(
    st.builds(
        ChannelProviderSpec,
        kind=st.just("few_ray"),
        ray_count=st.integers(1, 10**7),
        rician_k_db=rician_k_dbs,
    ),
    st.builds(ChannelProviderSpec, kind=st.just("statistical"), rician_k_db=rician_k_dbs),
    st.builds(
        ChannelProviderSpec,
        kind=st.just("import"),
        rician_k_db=rician_k_dbs,
        import_path=file_names,
    ),
)


@st.composite
def scenario_configs(draw):
    places = draw(
        st.lists(
            st.tuples(finite, finite, st.floats(0.0, 1e4), st.floats(-720.0, 720.0)),
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
            d_h=draw(st.floats(1e-6, MAX_D_H_WAVELENGTHS)),
            d_v=draw(positive),
            g_e_max_dbi=draw(finite),
            theta_3db_deg=draw(st.floats(1e-3, 360.0)),
            phi_3db_deg=draw(st.floats(1e-3, 360.0)),
            a_m_db=draw(positive),
            sl_av_db=draw(positive),
            tilt_deg=draw(st.floats(-90.0, 90.0)),
        ),
        codebook=BeamCodebook(n_beams),
        bss=bss,
        corridor=CorridorSpec(Position3D(draw(finite), draw(finite), 0.0), draw(positive),
                              draw(positive)),
        uav_count=draw(st.integers(1, len(bss) * n_beams)),
        channel_hf=draw(providers),
        lf_ray_count=draw(st.integers(1, 10**7)),
        allocator=draw(st.sampled_from(ALLOCATORS)),
        allocation_channel=draw(st.sampled_from(ALLOCATION_CHANNELS)),
        seed=draw(st.integers(-(2**70), 2**70)),
        replications=draw(st.integers(1, 100)),
    )


@settings(max_examples=200, deadline=None)
@given(scenario_configs())
def test_valid_config_survives_the_file_round_trip(tmp_path_factory, cfg):
    if cfg.channel_hf.kind == "import":
        path = tmp_path_factory.getbasetemp() / cfg.channel_hf.import_path
        path.touch()
        cfg.channel_hf = replace(cfg.channel_hf, import_path=str(path))
    assert validate_config(cfg) == []
    echo = config_to_dict(cfg)
    back = config_from_dict(json.loads(json.dumps(echo)))
    assert back == cfg
    assert config_to_dict(back) == echo
    assert config_digest(back) == config_digest(cfg)


def results_json(doc: dict) -> tuple[bytes, dict]:
    """The results.json bytes of a run of config file `doc`, and its config echo."""
    result = run_scenario(config_from_dict(doc))
    with tempfile.TemporaryDirectory() as out:
        return emit_reports([result], out)["results"].read_bytes(), result.config


def assert_reruns_from_its_echo(doc: dict) -> None:
    first, echo = results_json(doc)
    again, _ = results_json(json.loads(json.dumps(echo)))
    assert again == first


def two_decimals(lo: int, hi: int):
    return st.integers(100 * lo, 100 * hi).map(lambda k: k / 100)


# Explicit or aimed (null) boresights; aimed ones point at the corridor center.
site_docs = st.lists(
    st.fixed_dictionaries(
        {
            "x_m": two_decimals(-500, 900),
            "y_m": two_decimals(-500, 900),
            "z_m": two_decimals(0, 50),
        },
        optional={"boresight_deg": st.none() | two_decimals(-180, 180)},
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(uav_count=st.integers(1, 8), tilt=two_decimals(0, 30), sites=st.none() | site_docs)
def test_a_run_reruns_from_its_own_echo(uav_count, tilt, sites):
    doc = {"uav_count": uav_count, "antenna": {"tilt_deg": tilt}}
    if sites is not None:
        doc["bss"] = sites
    assert_reruns_from_its_echo(doc)


@pytest.mark.parametrize(
    "doc",
    [
        # Held in radians, this tilt came back from its echo one ulp away and
        # moved per-UAV results under the same config_digest.
        pytest.param({"uav_count": 20, "antenna": {"tilt_deg": 0.84}}, id="tilt"),
        pytest.param({}, id="default"),
        pytest.param({"uav_count": 64, "replications": 4, "rf": {"noise_power_w": 1.2e-13}},
                     id="ktb"),
        pytest.param({"replications": 3, "antenna": {"n_h": 5, "d_h_wavelengths": 1.3}},
                     id="odd-grating"),
    ],
)
def test_a_fixed_config_reruns_from_its_own_echo(doc):
    assert_reruns_from_its_echo(doc)


json_leaves = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
# Keys mostly drawn from the schema and the retired keys, so documents get past
# the unknown-key check and reach the type checks.
inner_names = sorted(
    {k for v in DEFAULT_ECHO.values() if isinstance(v, dict) for k in v} | {"import_path"}
)
site_names = sorted(DEFAULT_ECHO["bss"][0])
sites = st.lists(
    st.dictionaries(st.sampled_from([*site_names, "seed"]), json_leaves, max_size=5)
    | json_values,
    max_size=3,
)
documents = st.dictionaries(
    st.sampled_from(
        [*DEFAULT_ECHO, "annealer", "num_rrbs", "bogus"]
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
    problems = validate_config(cfg)
    assert isinstance(problems, list)
    # Every message names a key of the file it is about, or `bss`/`uav_count`
    # for a check that spans several keys.
    keys = file_keys(config_to_dict(cfg)) | {"bss", "uav_count"}
    for problem in problems:
        assert named_key(problem) in keys, problem


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
