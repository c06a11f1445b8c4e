"""The JSON form shared by the config dataclasses.

``to_dict`` writes one key per dataclass field in field order and
``from_dict`` reads the same keys back, so a field added to a config
reaches its JSON form, and with it the manifest's ``config_hash``.
"""

import json
from dataclasses import fields

import numpy as np
import pytest

from gscsim import BeliefSet, EconomyParams, ScenarioConfig, ShockParams, UtilitySpec
from gscsim.cli import main

from conftest import symmetric_two_tier

# A small two-location economy and a scenario on it, run through main.
CI_ECONOMY = {"T": [[2.0, 1.5], [1.0, 1.0]], "L": [1.0, 1.5],
              "tau": [[1.0, 1.2], [1.2, 1.0]], "alpha": [1.0, 0.5],
              "beta": [0.5, 1.0], "theta": 4.0, "sigma": 2.0}
CI_SCENARIO = {"economy": CI_ECONOMY,
               "shock": {"eta": 0.2, "lam": 1.0, "zeta": 0.9},
               "horizon": 6, "shock_period": 3, "grid_resolution": 21}
# config_hash of both runs; any drift in key names, order or value types
# of the JSON form changes them.
SIMULATE_HASH = "f27e5af243f000763752c64d44f8819e9c6d6b898f84ed1f9030dd1d28a18790"
EQUILIBRIUM_HASH = "daeab2593bfefd22f9c42bc54509edb5e29e0fb96c80b2c8a7faebf4297b692e"


def configs():
    economy = symmetric_two_tier()
    shock = ShockParams(eta=0.2, lam=0.5, zeta=0.75)
    beliefs = BeliefSet(0.2, 0.8)
    scenario = ScenarioConfig(economy=economy, shock=shock, decision_mode="planner",
                              info_env="ambiguity", realization="east",
                              shock_period=3, horizon=6, grid_resolution=21,
                              seed=7, utility=UtilitySpec(rho=1.0), beliefs=beliefs)
    return [economy, shock, beliefs, scenario]


IDS = ["economy", "shock", "belief", "scenario"]
# (class, kind, a complete dict) for the configs read by the shared from_dict
REQUIRED = [
    (EconomyParams, "economy", symmetric_two_tier().to_dict()),
    (ShockParams, "shock", {"eta": 0.2, "lam": 0.5, "zeta": 0.75}),
    (BeliefSet, "belief", {"zeta_lo": 0.2, "zeta_hi": 0.8}),
]


@pytest.mark.parametrize("config", configs(), ids=IDS)
def test_keys_follow_field_order_and_round_trip(config):
    d = config.to_dict()
    assert list(d) == [f.name for f in fields(config)]
    clone = type(config).from_dict(json.loads(json.dumps(d)))
    assert json.dumps(clone.to_dict()) == json.dumps(d)


def test_values_are_plain_json():
    d = configs()[-1].to_dict()
    assert d["economy"]["T"] == [[1.0, 1.0], [1.0, 1.0]]
    assert list(d["economy"]) == [f.name for f in fields(EconomyParams)]
    assert d["utility"] == {"rho": 1.0}
    assert d["beliefs"] == {"zeta_lo": 0.2, "zeta_hi": 0.8}
    assert not any(isinstance(v, np.ndarray) for v in d["economy"].values())
    assert isinstance(d["horizon"], int) and isinstance(d["economy"]["theta"], float)


@pytest.mark.parametrize("cls,kind,full", REQUIRED, ids=IDS[:3])
def test_each_missing_key_is_named(cls, kind, full):
    required = [k for k in full if k != "gamma"]
    for key in required:
        d = {k: v for k, v in full.items() if k != key}
        with pytest.raises(ValueError, match=f"^{kind} config missing key: {key}$"):
            cls.from_dict(d)
    first, second = required[0], required[-1]
    d = {k: v for k, v in full.items() if k not in (second, first)}
    with pytest.raises(ValueError,
                       match=f"^{kind} config missing keys: {first}, {second}$"):
        cls.from_dict(d)


@pytest.mark.parametrize("cls,kind,full", REQUIRED, ids=IDS[:3])
def test_extra_keys_are_ignored(cls, kind, full):
    loaded = cls.from_dict({"comment": "ignored", **full, "zzz": [1, 2]})
    assert loaded.to_dict() == cls.from_dict(full).to_dict()


def test_defaults_fill_missing_optional_keys():
    d = symmetric_two_tier().to_dict()
    del d["gamma"]
    assert EconomyParams.from_dict(d).gamma == 1.0
    minimal = ScenarioConfig.from_dict({"economy": d, "shock": CI_SCENARIO["shock"]})
    assert minimal.to_dict() == ScenarioConfig(economy=EconomyParams.from_dict(d),
                                               shock=ShockParams(0.2, 1.0, 0.9)).to_dict()


def test_scenario_sections_name_every_missing_key():
    with pytest.raises(ValueError, match="^scenario config missing section 'shock'$"):
        ScenarioConfig.from_dict({"economy": CI_ECONOMY})
    with pytest.raises(ValueError, match="^shock: shock config missing keys: lam, zeta$"):
        ScenarioConfig.from_dict({**CI_SCENARIO, "shock": {"eta": 0.2}})
    with pytest.raises(ValueError, match="^economy: economy config missing key: tau$"):
        ScenarioConfig.from_dict({**CI_SCENARIO, "economy": {
            k: v for k, v in CI_ECONOMY.items() if k != "tau"}})
    with pytest.raises(ValueError, match="^beliefs: belief config missing keys: "
                                         "zeta_lo, zeta_hi$"):
        ScenarioConfig.from_dict({**CI_SCENARIO, "beliefs": {}})


def manifest_hash(out_dir) -> str:
    return json.loads((out_dir / "manifest.json").read_text())["config_hash"]


def test_config_hash_is_frozen(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(CI_SCENARIO))
    assert main(["simulate", "--config", str(scenario), "--matrix",
                 "--out", str(tmp_path / "sim")]) == 0
    assert manifest_hash(tmp_path / "sim") == SIMULATE_HASH
    economy = tmp_path / "econ.json"
    economy.write_text(json.dumps(CI_ECONOMY))
    assert main(["equilibrium", "--params", str(economy),
                 "--out", str(tmp_path / "eq")]) == 0
    assert manifest_hash(tmp_path / "eq") == EQUILIBRIUM_HASH


def test_cli_names_every_missing_shock_key(tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({**CI_SCENARIO, "shock": {"eta": 0.2}}))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: shock: shock config missing keys: lam, zeta\n"
    assert not (tmp_path / "out").exists()


# (case, subcommand, file content, extra arguments, message); each used to
# reach a TypeError or a KeyError that named no config.
NOT_AN_OBJECT = [
    ("economy-string", "equilibrium", "T L tau alpha beta theta sigma", [],
     "economy config must be a JSON object, got str"),
    ("economy-list", "equilibrium", [1, 2], [],
     "economy config must be a JSON object, got list"),
    ("utility-int", "simulate", {**CI_SCENARIO, "utility": 5}, [],
     "utility: utility config must be a JSON object, got int"),
    ("economy-section-list", "simulate", {**CI_SCENARIO, "economy": [1, 2]}, [],
     "economy: economy config must be a JSON object, got list"),
    ("scenario-list", "simulate", [1, 2], [],
     "scenario config must be a JSON object, got list"),
    ("scenario-list-seed", "simulate", [1, 2], ["--seed", "3"],
     "scenario config must be a JSON object, got list"),
]


@pytest.mark.parametrize("command,content,extra,message",
                         [row[1:] for row in NOT_AN_OBJECT],
                         ids=[row[0] for row in NOT_AN_OBJECT])
def test_cli_names_config_that_is_not_an_object(tmp_path, capsys, command, content,
                                                extra, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(content))
    flag = "--params" if command == "equilibrium" else "--config"
    out = tmp_path / "out"
    assert main([command, flag, str(path), "--out", str(out), *extra]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_sections_that_are_not_objects_are_named():
    for kind, value in (("economy", "x"), ("shock", 0.2), ("beliefs", [0.1, 0.9])):
        with pytest.raises(ValueError, match=f"^{kind}: {kind} config must be a JSON object, "
                                             f"got {type(value).__name__}$"):
            ScenarioConfig.from_dict({**CI_SCENARIO, kind: value})
    for cls in (EconomyParams, ShockParams, BeliefSet, ScenarioConfig):
        with pytest.raises(ValueError, match=f"^{cls.kind} config must be a JSON object, "
                                             "got NoneType$"):
            cls.from_dict(None)
