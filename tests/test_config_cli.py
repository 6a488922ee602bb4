import ast
import builtins
import dataclasses
import hashlib
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from afferentsim import cli, config, fem, mesh, neural, optimize, pipeline, stimulus
from afferentsim.errors import ValidationError
from oracles import load_mesh, write_protocol_file


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def write_protocol(tmp_path, specs, name="protocol.json"):
    path = tmp_path / name
    write_protocol_file(specs, path)
    return str(path)


def sin_fields(freq, amp, duration=200.0, window=100.0, discard=100.0):
    """A sinusoid's fields as a protocol file holds them, valid or not."""
    return dict(
        stimulus_id=f"sin_{freq:03.0f}hz_{amp:06.2f}um", kind="sinusoid",
        duration_ms=duration, discard_ms=discard, window_ms=window,
        freq_hz=freq, amplitude_um=amp,
    )


def sin_spec(freq, amp, duration=200.0, window=100.0):
    return stimulus.StimulusSpec(**sin_fields(freq, amp, duration, window))


# ------------------------------------------------------------------ config


def test_config_defaults_from_empty_dict():
    cfg = config.config_from_dict({})
    assert cfg.geometry.domain_width_mm == 20.0
    assert cfg.geometry.surface_element_mm == 0.2
    assert [m.name for m in cfg.materials] == [
        "stratum_corneum", "epidermis", "dermis", "subcutaneous"
    ]
    assert cfg.protocol == "appendixA"
    assert cfg.seed == 0
    assert cfg.indenter_diameter_mm == 1.0
    assert cfg.fit.afferents == ("SA", "RA", "PC")
    assert cfg.fit.population == 100 and cfg.fit.budget == 10000


def test_config_unknown_key_rejected():
    with pytest.raises(ValidationError, match="unknown"):
        config.config_from_dict({"indenter_diameter": 1.0})
    with pytest.raises(ValidationError):
        config.config_from_dict({"geometry": {"width": 3.0}})


def test_config_geometry_error_names_field():
    with pytest.raises(ValidationError, match="domain_width_mm"):
        config.config_from_dict({"geometry": {"domain_width_mm": 0.0}})


def test_config_seed_type():
    with pytest.raises(ValidationError):
        config.config_from_dict({"seed": True})
    with pytest.raises(ValidationError):
        config.config_from_dict({"seed": 1.5})
    assert config.config_from_dict({"seed": 3}).seed == 3


# Each value type, a maker of a valid instance, an invalid field value and
# the message that refuses it.
VALUE_CASES = {
    "StimulusSpec": (lambda: sin_spec(50.0, 34.80), {"freq_hz": 1500.0},
                     r"^freq_hz=1500.0 violates Nyquist \(1000.0 Hz at dt=0.5 ms\)$"),
    "IndenterSpec": (lambda: fem.IndenterSpec(displacement_trace=np.zeros(3)),
                     {"pre_indentation_mm": np.nan},
                     r"^pre_indentation_mm must be finite, got nan$"),
    "AfferentParams": (lambda: neural.default_afferent_params()["RA"], {"u_rest_mv": -50.0},
                       r"^need u_reset <= u_rest < threshold, got -65.0, -50.0, -55.0$"),
    "ObservedRateSet": (lambda: optimize.ObservedRateSet("RA", ((20.0, 10.0, 5.0),)),
                        {"records": ((20.0, 10.0, -1.0),)},
                        r"^negative observed rate at \(20.0 Hz, 10.0 um\)$"),
    "FitConfig": (config.FitConfig, {"population": 1}, r"^fit\.population must be >= 2$"),
    "RunConfig": (config.RunConfig, {"seed": -1}, r"^seed must be >= 0, got -1$"),
}


@pytest.mark.parametrize("make, bad, message", VALUE_CASES.values(), ids=VALUE_CASES)
def test_values_check_themselves_when_made(make, bad, message):
    """A spec, parameter set, observed-rate set or config that constructs is
    valid: its constructor and dataclasses.replace both refuse an invalid
    field, and it is frozen, so no field changes without a check."""
    valid = make()
    assert not hasattr(valid, "validate")
    fields = {f.name: getattr(valid, f.name) for f in dataclasses.fields(valid)}
    with pytest.raises(ValidationError, match=message):
        type(valid)(**fields | bad)
    with pytest.raises(ValidationError, match=message):
        dataclasses.replace(valid, **bad)
    (name, value), = bad.items()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(valid, name, value)


def test_validate_calls_are_the_cross_object_checks():
    """Values check themselves when made, so no consumer checks one again:
    the package's only .validate( calls are the `validate` command and the
    checks that need a second value, a geometry against its layers (and
    each layer it holds)."""
    package = Path(config.__file__).parent
    calls = sorted(
        (path.name, ast.unparse(node))
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "validate"
    )
    assert calls == [
        ("cli.py", "pipeline.validate(cfg)"),
        ("config.py", "self.geometry.validate(self.materials)"),
        ("mesh.py", "layer.validate()"),
        ("mesh.py", "spec.validate(materials)"),
    ]


def test_config_hash_tracks_content():
    a = config.config_from_dict({})
    b = config.config_from_dict({})
    c = config.config_from_dict({"seed": 1})
    assert a.content_hash() == b.content_hash()
    assert a.content_hash() != c.content_hash()
    # output directory is not part of the scientific content
    d = config.config_from_dict({"output_dir": "elsewhere"})
    assert d.content_hash() == a.content_hash()


def test_config_resolved_round_trip(tmp_path):
    cfg = config.config_from_dict({"seed": 5, "protocol": "appendixB"})
    path = tmp_path / "resolved.json"
    path.write_text(json.dumps(cfg.to_dict()))
    again = config.load_config(str(path))
    assert again.to_dict() == cfg.to_dict()
    assert again.content_hash() == cfg.content_hash()


def test_config_custom_materials_validated():
    raw = {"materials": [
        {"name": "a", "elastic_modulus_mpa": 1.0, "poisson_ratio": 0.3,
         "depth_top_mm": 0.0, "depth_bottom_mm": 1.0},
        {"name": "b", "elastic_modulus_mpa": 1.0, "poisson_ratio": 0.3,
         "depth_top_mm": 1.5, "depth_bottom_mm": 8.0},
    ]}
    with pytest.raises(ValidationError, match="geometry/materials"):
        config.config_from_dict(raw)


@pytest.mark.parametrize("raw, field_path", [
    ({"geometry": {"afferent_depths_mm": {"SA": "deep", "RA": 0.75, "PC": 3.0}}},
     "geometry.afferent_depths_mm.SA"),
    ({"geometry": {"afferent_depths_mm": {"SA": True, "RA": 0.75, "PC": 3.0}}},
     "geometry.afferent_depths_mm.SA"),
    ({"materials": [{"name": "x", "elastic_modulus_mpa": "soft", "poisson_ratio": 0.3,
                     "depth_top_mm": 0, "depth_bottom_mm": 8}]},
     "materials[0].elastic_modulus_mpa"),
    ({"afferent_params": {"path": 5}}, "afferent_params.path"),
    ({"afferent_params": {"path": "sel.json", "typo": 1}},
     "afferent_params keys: ['typo']"),
    ({"fit": {"observed_rates_csv": 5}}, "fit.observed_rates_csv"),
    ({"fit": {"population": 100.5, "budget": 500}}, "fit.population"),
    # json.load reads NaN and Infinity, and json.dumps writes them
    ({"indenter": {"pre_indentation_mm": float("nan")}}, "indenter.pre_indentation_mm"),
    ({"indenter": {"pre_indentation_mm": float("inf")}}, "indenter.pre_indentation_mm"),
    ({"dt_ms": 0.25}, "dt_ms: expected a step of 0.5, got 0.25 "
                      "(the model is defined at 0.5 ms only)"),
], ids=["string-depth", "bool-depth", "string-modulus", "numeric-params-path",
        "params-typo", "numeric-observed-path", "fractional-population",
        "nan-pre-indentation", "infinite-pre-indentation", "other-dt"])
def test_config_malformed_value_exits_2(tmp_path, caplog, raw, field_path):
    with pytest.raises(ValidationError, match=re.escape(field_path)):
        config.config_from_dict(raw)
    cfg_path = write_config(tmp_path, raw)
    for command in ("mesh", "validate", "simulate", "fit"):
        out = tmp_path / command
        caplog.clear()
        with caplog.at_level(logging.ERROR, logger="afferentsim"):
            assert cli.main([command, "--config", cfg_path, "--out", str(out)]) == 2
        assert field_path in caplog.text
        assert not out.exists()


@pytest.mark.parametrize("afferents", [[], ["SA", "RA", "SA"]], ids=["empty", "repeated"])
def test_config_fit_afferents_name_each_type_once(afferents):
    with pytest.raises(ValidationError, match="fit.afferents"):
        config.config_from_dict({"fit": {"afferents": afferents}})


# every key set; the hash of each config is stamped on every output it makes
_EVERY_KEY = {
    "geometry": {"domain_width_mm": 18.5, "surface_element_mm": 0.1, "coarsening": 8.0,
                 "afferent_depths_mm": {"SA": 1, "RA": 0.75, "PC": 3}},
    "materials": [
        {"name": "a", "elastic_modulus_mpa": 1, "poisson_ratio": 0.3,
         "depth_top_mm": 0, "depth_bottom_mm": 1.0},
        {"name": "b", "elastic_modulus_mpa": 0.5, "poisson_ratio": 0.45,
         "depth_top_mm": 1.0, "depth_bottom_mm": 8},
    ],
    "indenter": {"diameter_mm": 0.5, "center_x_mm": 0.3, "pre_indentation_mm": 0},
    "dt_ms": 0.5, "protocol": "appendixB", "afferent_params": {"path": "selected_RA.json"},
    "seed": 3, "output_dir": "o",
    "fit": {"afferents": ["RA"], "observed_rates_csv": "obs.csv",
            "population": 20, "budget": 400},
}
# the input files _EVERY_KEY names, which enter its hash by their bytes
_EVERY_KEY_FILES = {
    "selected_RA.json": '{"afferent": "RA"}\n',
    "obs.csv": "afferent,freq_hz,amplitude_um,rate_ips\nRA,20.0,6.71,5.0\n",
}


def _write_files(directory, files):
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (directory / name).write_text(text)


@pytest.mark.parametrize("raw, digest", [
    ({}, "bef095db23d68bdb"),
    (_EVERY_KEY, "86ddbc84e3710f7c"),
], ids=["defaults", "every-key"])
def test_config_hash_is_pinned(tmp_path, raw, digest):
    _write_files(tmp_path, _EVERY_KEY_FILES)
    assert config.config_from_dict(raw, base_dir=str(tmp_path)).content_hash() == digest


@pytest.mark.parametrize("atype, digest", [
    ("SA", "c6f0071dafedd9e3"), ("RA", "1bcc67536c95f69f"), ("PC", "3608ad4823245beb"),
])
def test_afferent_params_hash_is_pinned(atype, digest):
    # the params_hash of every spikes.jsonl record
    assert neural.default_afferent_params()[atype].content_hash() == digest


def test_observed_rates_hash_is_pinned():
    # the observed_data_hash of every selected_<TYPE>.json; the integer rate
    # enters as the float it is read as
    observed = optimize.ObservedRateSet("RA", ((20.0, 6.71, 5), (50.0, 34.8, 20.25)))
    assert observed.content_hash() == "8c6ccf51f1e2febc"


def test_config_hash_reads_input_files_not_paths(tmp_path):
    """The same input files under two directories give one hash, and a
    changed byte in any of them gives another."""
    files = dict(_EVERY_KEY_FILES, **{"protocol.json": '{"stimuli": []}\n'})
    raw = dict(_EVERY_KEY, protocol="protocol.json")

    def digest(directory):
        return config.config_from_dict(raw, base_dir=str(directory)).content_hash()

    _write_files(tmp_path / "a", files)
    _write_files(tmp_path / "b" / "c", files)
    assert digest(tmp_path / "a") == digest(tmp_path / "b" / "c")
    for name, text in files.items():
        _write_files(tmp_path / name, dict(files, **{name: text.replace("\n", " \n")}))
        assert digest(tmp_path / name) != digest(tmp_path / "a"), name


# --------------------------------------------------------------------- CLI


def test_cli_mesh_outputs(tmp_path):
    cfg_path = write_config(tmp_path, {})
    out = tmp_path / "out"
    assert cli.main(["mesh", "--config", cfg_path, "--out", str(out)]) == 0
    meta = json.loads((out / "mesh_meta.json").read_text())
    built = load_mesh(out / "mesh.txt", config.config_from_dict({}).materials)
    assert meta["nodes"] == built.n_nodes
    assert meta["elements"] == built.n_elements
    assert meta["mesh_hash"] == hashlib.sha256((out / "mesh.txt").read_bytes()).hexdigest()
    assert mesh.export_mesh_text(built) == (out / "mesh.txt").read_text()
    assert set(meta["afferent_nodes"]) == {"SA", "RA", "PC"}
    assert "config=" in meta["provenance"]

    # a rerun writes the same bytes, and simulate solves on this mesh
    out2 = tmp_path / "out2"
    assert cli.main(["mesh", "--config", cfg_path, "--out", str(out2)]) == 0
    for name in ("mesh.txt", "mesh_meta.json"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes(), name
    simulated = tmp_path / "simulated"
    protocol = write_protocol(tmp_path, [sin_spec(50.0, 34.80)])
    sim_cfg = write_config(tmp_path, {"protocol": protocol}, "simulate.json")
    assert cli.main(["simulate", "--config", sim_cfg, "--out", str(simulated)]) == 0
    assert (simulated / "mesh.txt").read_bytes() == (out / "mesh.txt").read_bytes()


def test_cli_validate_default_geometry(tmp_path):
    cfg_path = write_config(tmp_path, {})
    out, again = tmp_path / "out", tmp_path / "again"
    assert cli.main(["validate", "--config", cfg_path, "--out", str(out)]) == 0
    assert cli.main(["validate", "--config", cfg_path, "--out", str(again)]) == 0
    for name in ("validation_report.json", "deflection.csv"):
        assert (out / name).read_bytes() == (again / name).read_bytes(), name
    report = json.loads((out / "validation_report.json").read_text())
    assert report["passed"] is True
    assert 0.9 <= report["max_deflection_mm"] <= 1.1
    assert report["monotone_decay"] is True
    lines = (out / "deflection.csv").read_text().splitlines()
    assert lines[1] == "x_mm,deflection_mm"
    first = lines[2].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == report["max_deflection_mm"]


def test_cli_simulate_small_protocol(tmp_path):
    protocol = write_protocol(
        tmp_path, [sin_spec(50.0, 113.60), sin_spec(50.0, 34.80)]
    )
    cfg_path = write_config(tmp_path, {"protocol": protocol})
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0

    rates = [ln for ln in (out / "rates.csv").read_text().splitlines()
             if ln and not ln.startswith("#")]
    assert rates[0] == "afferent,stimulus_id,freq_hz,amplitude_um,predicted_ips,observed_ips"
    assert len(rates) == 1 + 2 * 3  # stimuli x afferent types
    spikes = (out / "spikes.jsonl").read_text().splitlines()
    assert len(spikes) == 6
    for line in spikes:
        rec = json.loads(line)
        assert set(rec) >= {"afferent", "params_hash", "dt", "spikes", "meta"}
        assert rec["meta"]["stimulus_id"].startswith("sin_050hz")
    stress_files = sorted(os.listdir(out / "stress"))
    assert len(stress_files) == 6
    assert (out / "config_resolved.json").exists()
    # the larger amplitude drives the RA afferent at least as hard
    def ra_rate(amp_tag):
        for ln in rates[1:]:
            parts = ln.split(",")
            if parts[0] == "RA" and amp_tag in parts[1]:
                return float(parts[4])
        raise AssertionError(amp_tag)
    assert ra_rate("113.60") >= ra_rate("034.80")


def test_spike_jsonl_round_trip(tmp_path):
    """Each spikes.jsonl line is the record of one stimulus and afferent
    type, stimuli in protocol order: the type, its params hash, the step,
    the trace's duration, the spike times of its stress trace through
    run_afferents, and meta naming the afferent's node and the stimulus."""
    specs = [sin_spec(50.0, 113.60), sin_spec(20.0, 250.0, duration=345.0, window=245.0)]
    cfg_path = write_config(tmp_path, {"protocol": write_protocol(tmp_path, specs)})
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    lines = (out / "spikes.jsonl").read_text().splitlines()
    simulated = pipeline.simulate(config.load_config(cfg_path))
    params = neural.default_afferent_params()
    expected = [(spec, atype) for spec in specs for atype in mesh.AFFERENT_TYPES]
    assert len(lines) == len(expected)
    assert [json.loads(line) for line in lines] == simulated.trains
    n_spikes = 0
    for line, (spec, atype) in zip(lines, expected):
        rec = json.loads(line)
        assert line == json.dumps(rec, sort_keys=True)
        assert set(rec) == {"afferent", "params_hash", "dt", "duration_ms", "spikes", "meta"}
        assert rec["afferent"] == atype
        assert rec["params_hash"] == params[atype].content_hash()
        assert rec["dt"] == stimulus.DT_MS
        assert rec["duration_ms"] == spec.duration_ms
        trace = simulated.bank[spec.stimulus_id][atype]
        window = (spec.discard_ms, spec.discard_ms + spec.window_ms)
        (steps,), _ = neural.run_afferents([trace], params[atype], [window])
        assert rec["spikes"] == (steps * stimulus.DT_MS).tolist()
        assert rec["meta"] == {"node_id": simulated.mesh.afferent_nodes[atype],
                               "stimulus_id": spec.stimulus_id}
        n_spikes += len(rec["spikes"])
    assert n_spikes > 0


def test_cli_simulate_zero_amplitude_is_silent(tmp_path):
    protocol = write_protocol(tmp_path, [sin_spec(50.0, 0.0)])
    cfg_path = write_config(tmp_path, {"protocol": protocol})
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    for ln in (out / "rates.csv").read_text().splitlines():
        if ln.startswith(("SA", "RA", "PC")):
            assert float(ln.split(",")[4]) == 0.0


def test_cli_simulate_rerun_is_byte_identical(tmp_path):
    protocol = write_protocol(tmp_path, [sin_spec(50.0, 34.80)])
    cfg_path = write_config(tmp_path, {"protocol": protocol})
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    exports = ["rates.csv", "spikes.jsonl", "config_resolved.json", "mesh.txt"]
    exports += [os.path.join("stress", p) for p in os.listdir(out / "stress")]
    before = {p: (out / p).read_bytes() for p in exports}

    assert cli.main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    assert not (out / "cache").exists()  # every run solves its FEM
    for p, blob in before.items():
        assert (out / p).read_bytes() == blob, p

    # the resolved config the run wrote reproduces it elsewhere
    resolved = tmp_path / "resolved"
    assert cli.main(["simulate", "--config", str(out / "config_resolved.json"),
                     "--out", str(resolved)]) == 0
    for p, blob in before.items():
        if p != "config_resolved.json":
            assert (resolved / p).read_bytes() == blob, p


def test_cli_simulate_restated_step_changes_no_output(tmp_path):
    """"dt_ms": 0.5 in the config or in a protocol entry restates the model's
    step, and the run writes what it writes with the key left out.  The
    config hash reads the stimuli a protocol file loads to, not its bytes,
    so even the provenance lines are the same."""
    plain = write_protocol(tmp_path, [sin_spec(50.0, 34.80)])
    payload = json.loads(open(plain).read())
    payload["stimuli"][0]["dt_ms"] = 0.5
    restated = tmp_path / "restated.json"
    restated.write_text(json.dumps(payload))
    configs = {"plain": {"protocol": plain}, "config": {"protocol": plain, "dt_ms": 0.5},
               "protocol": {"protocol": str(restated)}}
    hashes, outputs = {}, {}
    for name, raw in configs.items():
        cfg_path = write_config(tmp_path, raw, f"{name}.json")
        out = tmp_path / name
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
        hashes[name] = config.load_config(cfg_path).content_hash()
        resolved = json.loads((out / "config_resolved.json").read_text())
        del resolved["output_dir"], resolved["protocol"]
        outputs[name] = resolved, {
            p.relative_to(out): p.read_bytes()
            for p in out.rglob("*") if p.is_file() and p.name != "config_resolved.json"
        }
    assert hashes["config"] == hashes["plain"] == hashes["protocol"]
    other = write_protocol(tmp_path, [sin_spec(50.0, 34.81)], "other.json")
    assert config.config_from_dict({"protocol": other}).content_hash() != hashes["plain"]
    assert len(outputs["plain"][1]) == 6  # rates, spikes, mesh and three traces
    assert outputs["config"] == outputs["plain"]
    assert outputs["protocol"] == outputs["plain"]


def test_cli_simulate_rejects_repeated_stimulus_id(tmp_path, caplog):
    # one id for 10 um and 250 um would report the 250 um rates twice
    low = sin_spec(50.0, 10.0)
    high = dataclasses.replace(low, amplitude_um=250.0)
    protocol = write_protocol(tmp_path, [low, high])
    cfg_path = write_config(tmp_path, {"protocol": protocol})
    out = tmp_path / "out"
    with caplog.at_level(logging.ERROR, logger="afferentsim"):
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    assert f"repeats stimulus_id {low.stimulus_id!r}" in caplog.text
    assert not (out / "rates.csv").exists()


@pytest.mark.parametrize("field, value", [
    ("duration_ms", "200"),
    ("freq_hz", "50"),
    ("amplitude_um", True),
    ("stimulus_id", 5),
    ("discard_ms", float("nan")),
    ("dt_ms", 0.25),
], ids=["string-duration", "string-freq", "bool-amplitude", "numeric-id", "nan-discard",
        "other-dt"])
def test_cli_simulate_rejects_protocol_field_of_wrong_kind(tmp_path, caplog, field,
                                                           value):
    protocol = write_protocol(tmp_path, [sin_spec(50.0, 10.0), sin_spec(50.0, 34.80)])
    payload = json.loads(open(protocol).read())
    payload["stimuli"][1][field] = value
    with open(protocol, "w") as fh:
        json.dump(payload, fh)
    cfg_path = write_config(tmp_path, {"protocol": protocol})
    out = tmp_path / "out"
    with caplog.at_level(logging.ERROR, logger="afferentsim"):
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    assert f"{protocol}: stimulus #1: " in caplog.text
    assert f"{field}: expected a" in caplog.text
    if field == "dt_ms":
        assert "(the model is defined at 0.5 ms only)" in caplog.text
    assert os.listdir(out) == []  # refused before anything is written


def test_cli_simulate_rejects_stimuli_not_a_list(tmp_path, caplog):
    protocol = tmp_path / "protocol.json"
    protocol.write_text(json.dumps({"name": "custom", "stimuli": 5}))
    cfg_path = write_config(tmp_path, {"protocol": str(protocol)})
    out = tmp_path / "out"
    with caplog.at_level(logging.ERROR, logger="afferentsim"):
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    assert f"{protocol}: protocol file needs a 'stimuli' list" in caplog.text
    assert not (out / "mesh.txt").exists()


def test_stress_bank_logs_contact_sets(caplog, default_config, default_mesh,
                                       default_footprint):
    spec = sin_spec(50.0, 113.60)
    indenter = fem.IndenterSpec(
        pre_indentation_mm=default_config.indenter_pre_indentation_mm,
        displacement_trace=spec.generate(),
    )
    result = fem.run_indentation(default_footprint, indenter)
    assert result.contact_sets == 2  # the centre node, then its neighbours too

    with caplog.at_level(logging.INFO, logger="afferentsim"):
        pipeline.stress_bank(default_config, default_mesh, [spec])
    assert (
        f"FEM solved {spec.stimulus_id} ({spec.generate().size} steps, "
        f"{result.contact_sets} contact sets)"
    ) in caplog.text


def test_stress_bank_logs_footprint(caplog, default_config, default_mesh,
                                    default_footprint):
    specs = [sin_spec(50.0, 113.60), sin_spec(20.0, 250.0)]
    with caplog.at_level(logging.INFO, logger="afferentsim"):
        pipeline.stress_bank(default_config, default_mesh, specs)
    found = re.findall(
        r"FEM bank: 2 stimuli, 5 footprint DOFs, largest unit-load residual (\S+)",
        caplog.text,
    )
    assert len(found) == 1
    assert float(found[0]) == float(f"{default_footprint.residual:.2e}")
    assert default_footprint.residual <= 1e-8

    caplog.clear()  # a bank that never touches the skin still builds its footprint
    with caplog.at_level(logging.INFO, logger="afferentsim"):
        pipeline.stress_bank(default_config, default_mesh, [sin_spec(50.0, 0.0)])
    assert "FEM bank: 1 stimuli, 5 footprint DOFs, largest unit-load residual" in caplog.text


def test_cli_fit_rejects_duplicate_conditions(tmp_path):
    first = sin_spec(50.0, 34.80)
    twin = stimulus.StimulusSpec(
        stimulus_id="sin_050hz_034.80um_again", kind="sinusoid",
        duration_ms=300.0, discard_ms=100.0, window_ms=100.0,
        freq_hz=50.0, amplitude_um=34.80,
    )
    protocol = write_protocol(tmp_path, [first, twin])
    observed = tmp_path / "observed.csv"
    observed.write_text("afferent,freq_hz,amplitude_um,rate_ips\nRA,50.0,34.8,20.0\n")
    cfg = config.config_from_dict({
        "protocol": protocol,
        "fit": {"afferents": ["RA"], "observed_rates_csv": str(observed),
                "population": 4, "budget": 8},
    })
    with pytest.raises(ValidationError, match="sin_050hz_034.80um_again") as exc:
        pipeline.fit(cfg)
    assert "'sin_050hz_034.80um'" in str(exc.value)


def test_cli_seed_override_lands_in_outputs(tmp_path):
    protocol = write_protocol(tmp_path, [sin_spec(50.0, 0.0)])
    cfg_path = write_config(tmp_path, {"protocol": protocol})
    out = tmp_path / "out"
    assert cli.main([
        "simulate", "--config", cfg_path, "--out", str(out), "--seed", "7"
    ]) == 0
    resolved = json.loads((out / "config_resolved.json").read_text())
    assert resolved["seed"] == 7


def test_cli_lock_rejects_concurrent_use(tmp_path):
    cfg_path = write_config(tmp_path, {})
    out = tmp_path / "out"
    out.mkdir()
    (out / ".lock").write_text(f"{os.getpid()}\n")  # a live owner
    assert cli.main(["mesh", "--config", cfg_path, "--out", str(out)]) == 2
    (out / ".lock").write_text("not a pid\n")  # unreadable: refused too
    assert cli.main(["mesh", "--config", cfg_path, "--out", str(out)]) == 2
    (out / ".lock").unlink()
    assert cli.main(["mesh", "--config", cfg_path, "--out", str(out)]) == 0
    assert not (out / ".lock").exists()  # released on success


def test_cli_lock_of_exited_process_is_taken_over(tmp_path, caplog):
    cfg_path = write_config(tmp_path, {})
    out = tmp_path / "out"
    out.mkdir()
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    assert child.wait() == 0  # exited and reaped: its PID names no process
    (out / ".lock").write_text(f"{child.pid}\n")
    with caplog.at_level(logging.WARNING, logger="afferentsim"):
        assert cli.main(["mesh", "--config", cfg_path, "--out", str(out)]) == 0
    assert "stale lock" in caplog.text and str(child.pid) in caplog.text
    assert not (out / ".lock").exists()


def test_cli_import_leaves_out_scipy_signal_and_stats():
    # together about 1 s and 40 MB of import; only noise stimuli need them
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    code = (
        "import sys, afferentsim.cli; print(sorted(m for m in sys.modules "
        "if m.startswith(('scipy.signal', 'scipy.stats'))))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "[]"


def _loaded_modules(code):
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    done = subprocess.run(
        [sys.executable, "-c", code + "\nimport json\nprint(json.dumps(sorted(sys.modules)))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_package_root_loads_no_submodule():
    # the root holds only __version__; each name is imported from its module
    loaded = _loaded_modules("import sys, afferentsim")
    assert sorted(m for m in loaded if m.startswith("afferentsim.")) == []
    assert "numpy" not in loaded


def test_neural_and_optimize_load_no_fem():
    # the stages hand each other plain arrays: the neural model and the fit
    # take stress traces without the FEM
    loaded = _loaded_modules("import sys, afferentsim.optimize")
    assert {"afferentsim.neural", "afferentsim.optimize"} <= loaded
    assert "afferentsim.fem" not in loaded


@pytest.fixture(scope="module")
def simulate_and_fit_modules(tmp_path_factory):
    """The modules loaded after `simulate appendixA` and a small fit, run in
    one fresh interpreter."""
    tmp_path = tmp_path_factory.mktemp("simulate-and-fit")
    specs = stimulus.builtin_protocol("appendixA", base_seed=0)
    observed = tmp_path / "observed.csv"
    observed.write_text("afferent,freq_hz,amplitude_um,rate_ips\n" + "".join(
        f"RA,{s.freq_hz!r},{s.amplitude_um!r},{10.0 + s.amplitude_um / 10.0!r}\n"
        for s in specs
    ))
    cfg_path = write_config(tmp_path, {})
    fit_cfg = write_config(tmp_path, {"fit": {
        "afferents": ["RA"], "observed_rates_csv": str(observed),
        "population": 12, "budget": 36,
    }}, name="fit.json")
    runs = [
        ["simulate", "--config", cfg_path, "--protocol", "appendixA",
         "--out", str(tmp_path / "sim")],
        ["fit", "--config", fit_cfg, "--out", str(tmp_path / "fit")],
    ]
    modules = _loaded_modules(
        "import sys\nfrom afferentsim import cli\n"
        f"for argv in {runs!r}:\n    assert cli.main(argv) == 0, argv"
    )
    assert (tmp_path / "fit" / "selected_RA.json").exists()
    return modules


def test_simulate_and_fit_load_no_scipy(simulate_and_fit_modules):
    # SciPy serves only the band-pass noise stimuli (and the tests)
    assert sorted(m for m in simulate_and_fit_modules if m.split(".")[0] == "scipy") == []


def test_simulate_and_fit_load_no_numpy_ma(simulate_and_fit_modules):
    # NumPy's first np.unique without optional outputs imports numpy.ma,
    # 14-16 ms a command; nothing on these paths needs it
    if "numpy.ma" in _loaded_modules("import sys, numpy"):
        pytest.skip("importing numpy alone loads numpy.ma here")
    assert "numpy.ma" not in simulate_and_fit_modules


def test_cli_underconstrained_fem_exits_3(tmp_path, monkeypatch, caplog):
    # a bottom held only vertically leaves the skin free to slide sideways
    bottom = fem.bottom_constraints
    monkeypatch.setattr(fem, "bottom_constraints",
                        lambda m: {d: v for d, v in bottom(m).items() if d % 2})
    protocol = write_protocol(tmp_path, [sin_spec(50.0, 113.60)])
    cfg_path = write_config(tmp_path, {"protocol": protocol})
    with caplog.at_level(logging.ERROR, logger="afferentsim"):
        code = cli.main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "out")])
    assert code == 3
    assert "factorization failed" in caplog.text


@pytest.mark.parametrize("indenter", [
    # between the 0.2 mm-spaced surface nodes at x = 0 and x = 0.2
    pytest.param({"diameter_mm": 0.1, "center_x_mm": 0.1}, id="between-nodes"),
    pytest.param({"center_x_mm": 50.0}, id="off-the-skin"),  # the skin is 20 mm wide
])
def test_cli_simulate_rejects_indenter_that_never_touches(tmp_path, caplog, indenter):
    cfg_path = write_config(tmp_path, {"indenter": indenter})
    out = tmp_path / "out"
    with caplog.at_level(logging.ERROR, logger="afferentsim"):
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    diameter = indenter.get("diameter_mm", 1.0)
    assert (f"an indenter {diameter} mm wide centred at x = {indenter['center_x_mm']} mm "
            "covers no surface node") in caplog.text
    assert os.listdir(out) == []  # nothing written, the mesh included


ONE_LAYER = [{"name": "skin", "elastic_modulus_mpa": 0.05, "poisson_ratio": 0.4,
              "depth_top_mm": 0.0, "depth_bottom_mm": 2.0}]


@pytest.mark.parametrize("command", ["simulate", "mesh"])
@pytest.mark.parametrize("raw, message", [
    pytest.param({"geometry": {"afferent_depths_mm": {"SA": 50.0, "RA": 0.75, "PC": 3.0}}},
                 "SA afferent at 50.0 mm lands on node 1464 of the fixed bottom, 8.0 mm deep",
                 id="SA-below-the-skin"),
    # the default skin's deepest rows above the bottom are at 5.74 and 6.79 mm
    pytest.param({"geometry": {"afferent_depths_mm": {"SA": 1.0, "RA": 0.75, "PC": 7.5}}},
                 "PC afferent at 7.5 mm lands on node 1464 of the fixed bottom, 8.0 mm deep",
                 id="PC-nearest-the-bottom"),
    pytest.param({"materials": ONE_LAYER},
                 "PC afferent at 3.0 mm lands on node 757 of the fixed bottom, 2.0 mm deep",
                 id="PC-below-a-2mm-skin"),
])
def test_cli_refuses_afferent_on_the_fixed_bottom(tmp_path, caplog, command, raw, message):
    """An afferent that snaps to the bottom row, which the solver fixes as
    bone, would read the stress of a clamped node: refused before the FEM."""
    cfg_path = write_config(tmp_path, raw)
    out = tmp_path / "out"
    with caplog.at_level(logging.INFO, logger="afferentsim"):
        assert cli.main([command, "--config", cfg_path, "--out", str(out)]) == 2
    assert message in caplog.text
    assert "FEM solved" not in caplog.text
    assert not (out / "rates.csv").exists() and not (out / "mesh.txt").exists()


@pytest.mark.parametrize("command", ["simulate", "mesh"])
def test_cli_runs_afferent_on_the_row_above_the_bottom(tmp_path, command):
    # 7.3 mm snaps to the row at 6.79 mm, the deepest the solver leaves free
    cfg_path = write_config(tmp_path, {
        "geometry": {"afferent_depths_mm": {"SA": 1.0, "RA": 0.75, "PC": 7.3}},
        "protocol": write_protocol(tmp_path, [sin_spec(50.0, 34.80)]),
    })
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg_path, "--out", str(out)]) == 0
    built = load_mesh(out / "mesh.txt", config.config_from_dict({}).materials)
    assert -built.nodes[built.afferent_nodes["PC"], 1] == pytest.approx(6.79, abs=0.005)
    assert (out / "rates.csv").exists() == (command == "simulate")


def test_cli_exit_codes_for_bad_input(tmp_path):
    bad_cfg = write_config(tmp_path, {"geometry": {"domain_width_mm": 0.0}})
    assert cli.main(["mesh", "--config", bad_cfg, "--out", str(tmp_path / "a")]) == 2
    assert cli.main(["mesh", "--config", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "b")]) == 2
    ok_cfg = write_config(tmp_path, {}, name="ok.json")
    assert cli.main(["simulate", "--config", ok_cfg, "--out", str(tmp_path / "c"),
                     "--protocol", "appendixZ"]) == 2


def test_cli_fit_end_to_end(tmp_path):
    specs = [
        sin_spec(20.0, 250.0, duration=345.0, window=245.0),
        sin_spec(50.0, 113.60),
        sin_spec(100.0, 55.39),
        sin_spec(300.0, 19.24),
    ]
    protocol = write_protocol(tmp_path, specs)
    cfg_path = write_config(tmp_path, {"protocol": protocol})
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0

    # observed rates for the fit: the simulated RA rates, nudged slightly
    observed_csv = tmp_path / "observed.csv"
    rows = ["afferent,freq_hz,amplitude_um,rate_ips"]
    for ln in (out / "rates.csv").read_text().splitlines():
        parts = ln.split(",")
        if parts[0] == "RA":
            rows.append(f"RA,{parts[2]},{parts[3]},{float(parts[4]) + 1.0}")
    observed_csv.write_text("\n".join(rows) + "\n")

    fit_cfg = write_config(tmp_path, {
        "protocol": protocol,
        "fit": {"afferents": ["RA"], "observed_rates_csv": str(observed_csv),
                "population": 12, "budget": 36},
    }, name="fit.json")
    assert cli.main(["fit", "--config", fit_cfg, "--out", str(out)]) == 0

    front = (out / "front_RA.csv").read_text().splitlines()
    header = [ln for ln in front if not ln.startswith("#")][0]
    assert header == ("rank,objective_20,objective_50,objective_100,"
                      "objective_300,tau_m_ms,a3_pa_per_ms,alpha_prime")
    selected = json.loads((out / "selected_RA.json").read_text())
    assert selected["afferent"] == "RA"
    assert selected["provenance"]["budget"] == 36
    neural.AfferentParams.from_dict(selected["params"])  # refuses invalid params

    fit_rates = (out / "fit_rates_RA.csv").read_text().splitlines()
    data = [ln for ln in fit_rates if ln and not ln.startswith("#")][1:]
    assert len(data) == 4
    for ln in data:
        assert ln.split(",")[5] != ""  # observed column is filled

    reg = json.loads((out / "regression_RA.json").read_text())
    assert "pooled" in reg and "per_frequency" in reg
    if "error" not in reg["pooled"]:
        assert reg["pooled"]["n"] == 4


def test_cli_fit_counts_a_protocol_window_as_simulate_does(tmp_path):
    # sinusoids with their own windows, [50, 200) ms rather than appendixA's
    # [100, 200) ms, are fitted over those windows: the fit's rate for the
    # selected parameters is the one simulate reports for them, and both
    # count the spikes simulate writes.  probe_a's window ends with its
    # trace; probe_c's trace runs 200 ms past its window.
    probes = [
        stimulus.StimulusSpec(
            stimulus_id="probe_a", kind="sinusoid", duration_ms=200.0,
            discard_ms=50.0, window_ms=150.0, freq_hz=50.0, amplitude_um=113.60,
        ),
        stimulus.StimulusSpec(
            stimulus_id="probe_c", kind="sinusoid", duration_ms=400.0,
            discard_ms=50.0, window_ms=150.0, freq_hz=100.0, amplitude_um=55.39,
        ),
    ]
    protocol = write_protocol(tmp_path, probes)
    observed = tmp_path / "observed.csv"
    observed.write_text("afferent,freq_hz,amplitude_um,rate_ips\n"
                        "RA,50.0,113.6,20.0\nRA,100.0,55.39,20.0\n")
    cfg_path = write_config(tmp_path, {
        "protocol": protocol,
        "fit": {"afferents": ["RA"], "observed_rates_csv": str(observed),
                "population": 8, "budget": 24},
    })
    fitted = tmp_path / "fit"
    assert cli.main(["fit", "--config", cfg_path, "--out", str(fitted)]) == 0
    simulate_cfg = write_config(tmp_path, {
        "protocol": protocol,
        "afferent_params": {"path": str(fitted / "selected_RA.json")},
    }, name="simulate.json")
    simulated = tmp_path / "simulate"
    assert cli.main(["simulate", "--config", simulate_cfg, "--out", str(simulated)]) == 0

    def ra_rows(path):  # afferent, stimulus_id, freq, amplitude, predicted
        return [ln.split(",")[:5] for ln in path.read_text().splitlines()
                if ln.startswith("RA,")]

    rows = ra_rows(fitted / "fit_rates_RA.csv")
    assert [row[:2] for row in rows] == [["RA", "probe_a"], ["RA", "probe_c"]]
    assert ra_rows(simulated / "rates.csv") == rows
    trains = {rec["meta"]["stimulus_id"]: rec["spikes"] for rec in map(
        json.loads, (simulated / "spikes.jsonl").read_text().splitlines())
        if rec["afferent"] == "RA"}
    for probe, row in zip(probes, rows):
        spikes = float(row[4]) * 0.150  # a whole count over the 150 ms window
        assert spikes == pytest.approx(round(spikes))
        lo, hi = probe.discard_ms, probe.discard_ms + probe.window_ms
        assert round(spikes) == sum(lo <= t < hi for t in trains[probe.stimulus_id])
    assert float(rows[0][4]) > 0.0
    assert max(trains["probe_c"]) >= 200.0  # spikes after the window are kept


@pytest.mark.parametrize("command", ["simulate", "fit"])
def test_cli_refuses_window_past_rendered_trace_before_fem(tmp_path, caplog, command):
    # 200.2 ms at dt 0.5 ms renders 400 steps, ending at 200.0 ms, so the
    # window [100, 200.2) ms cannot be counted: the protocol is refused
    # when it loads, before any FEM solve
    spec = sin_fields(50.0, 34.80, duration=200.2, window=100.2)
    observed = tmp_path / "observed.csv"
    observed.write_text("afferent,freq_hz,amplitude_um,rate_ips\nRA,50.0,34.8,20.0\n")
    cfg_path = write_config(tmp_path, {
        "protocol": write_protocol(tmp_path, [spec]),
        "fit": {"afferents": ["RA"], "observed_rates_csv": str(observed),
                "population": 4, "budget": 8},
    })
    out = tmp_path / "out"
    with caplog.at_level(logging.INFO, logger="afferentsim"):
        assert cli.main([command, "--config", cfg_path, "--out", str(out)]) == 2
    assert (f"{spec['stimulus_id']}: window [100.0, 200.2) ms overruns the rendered "
            "200.0 ms trace") in caplog.text
    assert "FEM solved" not in caplog.text
    assert os.listdir(out) == []


def test_cli_refuses_window_off_the_step_grid_before_fem(tmp_path, caplog):
    # [100.1, 100.4) ms holds no step time, so counted it would read 0 ips
    # for every type, whatever the spikes
    spec = sin_fields(300.0, 50.0, discard=100.1, window=0.3)
    cfg_path = write_config(tmp_path, {"protocol": write_protocol(tmp_path, [spec])})
    out = tmp_path / "out"
    with caplog.at_level(logging.INFO, logger="afferentsim"):
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    assert (f"{spec['stimulus_id']}: discard_ms=100.1 is not a whole number of 0.5 ms "
            "steps") in caplog.text
    assert "FEM solved" not in caplog.text
    assert not (out / "rates.csv").exists()


def _two_tone_fields(f2, a2):
    return dict(
        stimulus_id="dih", kind="diharmonic", duration_ms=200.0, discard_ms=100.0,
        window_ms=100.0, freq_hz=50.0, amplitude_um=10.0, freq2_hz=f2, amplitude2_um=a2,
    )


def _noise_fields(lo, hi, rms):
    return dict(
        stimulus_id="noise", kind="bandpass_noise", duration_ms=200.0, discard_ms=100.0,
        window_ms=100.0, lo_hz=lo, hi_hz=hi, rms_um=rms, seed=0,
    )


@pytest.mark.parametrize("bad, message", [
    (sin_fields(1500.0, 10.0), "freq_hz=1500.0 violates Nyquist"),
    (sin_fields(50.0, -1.0), "amplitude_um must be >= 0, got -1.0"),
    (_two_tone_fields(1000.0, 1.0), "freq_hz=1000.0 violates Nyquist"),
    (_two_tone_fields(100.0, -0.5), "amplitude_um must be >= 0, got -0.5"),
    (_noise_fields(0.0, 100.0, 1.0), "need 0 < lo < hi < Nyquist (1000.0 Hz): got (0.0, 100.0)"),
    (_noise_fields(5.0, 1200.0, 1.0), "need 0 < lo < hi < Nyquist (1000.0 Hz): got (5.0, 1200.0)"),
    (_noise_fields(100.0, 50.0, 1.0), "need 0 < lo < hi < Nyquist (1000.0 Hz): got (100.0, 50.0)"),
    (_noise_fields(5.0, 100.0, 0.0), "rms_um must be > 0, got 0.0"),
    (sin_fields(-100.0, 10.0), "freq_hz must be > 0, got -100.0"),
    (sin_fields(0.0, 10.0), "freq_hz must be > 0, got 0.0"),
    (sin_fields(-2000.0, 10.0), "freq_hz must be > 0, got -2000.0"),
    (_two_tone_fields(-100.0, 1.0), "freq_hz must be > 0, got -100.0"),
])
def test_cli_refuses_out_of_band_stimulus_before_fem(tmp_path, caplog, bad, message):
    # the first stimulus is valid, so a check made only when each stimulus
    # renders would run the FEM on it before refusing the second
    protocol = write_protocol(tmp_path, [sin_spec(50.0, 34.80), bad])
    cfg_path = write_config(tmp_path, {"protocol": protocol})
    out = tmp_path / "out"
    with caplog.at_level(logging.INFO, logger="afferentsim"):
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    assert f"stimulus #1: {message}" in caplog.text
    assert "FEM solved" not in caplog.text
    assert os.listdir(out) == []


def test_cli_fit_rates_keep_stimulus_ids(tmp_path):
    probe = stimulus.StimulusSpec(
        stimulus_id="probe_b", kind="sinusoid", duration_ms=200.0,
        discard_ms=100.0, window_ms=100.0, freq_hz=50.0, amplitude_um=113.60,
    )
    protocol = write_protocol(tmp_path, [probe])
    observed = tmp_path / "observed.csv"
    observed.write_text("afferent,freq_hz,amplitude_um,rate_ips\nRA,50.0,113.6,20.0\n")
    cfg_path = write_config(tmp_path, {
        "protocol": protocol,
        "fit": {"afferents": ["RA"], "observed_rates_csv": str(observed),
                "population": 4, "budget": 8},
    })
    out = tmp_path / "out"
    assert cli.main(["fit", "--config", cfg_path, "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in (out / "fit_rates_RA.csv").read_text().splitlines()
            if ln and not ln.startswith("#")]
    assert rows[0][1] == "stimulus_id"
    assert [r[1] for r in rows[1:]] == ["probe_b"]


def test_cli_fit_opens_observed_rates_twice(tmp_path, monkeypatch):
    # once to read every configured type's rates, once to hash the config
    specs = [sin_spec(50.0, a) for a in (34.80, 55.39, 113.60)]
    observed = tmp_path / "observed.csv"
    observed.write_text("afferent,freq_hz,amplitude_um,rate_ips\n" + "".join(
        f"{atype},{s.freq_hz},{s.amplitude_um},{rate}\n"
        for atype in mesh.AFFERENT_TYPES for s, rate in zip(specs, (10.0, 20.0, 40.0))))
    cfg_path = write_config(tmp_path, {
        "protocol": write_protocol(tmp_path, specs),
        "fit": {"observed_rates_csv": str(observed), "population": 4, "budget": 8},
    })
    real_open = builtins.open
    opened = []

    def spy(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy)
    assert cli.main(["fit", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
    assert sum(os.path.basename(p).startswith("selected_") for p in opened) == 3  # every type
    assert opened.count(str(observed)) == 2


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_cli_json_outputs_refuse_non_finite_numbers(tmp_path, value):
    # NaN and Infinity are not JSON: writing one raises, and writes nothing
    path = tmp_path / "regression_RA.json"
    with pytest.raises(ValueError):
        cli._write_json(str(path), {"per_frequency": {"300": {"r_squared": value}}})
    assert not path.exists()


def test_cli_fit_requires_observed_rates(tmp_path):
    protocol = write_protocol(tmp_path, [sin_spec(50.0, 34.80)])
    cfg_path = write_config(tmp_path, {"protocol": protocol})
    assert cli.main(["fit", "--config", cfg_path,
                     "--out", str(tmp_path / "out")]) == 2


def test_cli_fit_refuses_observed_conditions_the_protocol_lacks(tmp_path, caplog):
    # RA's 20 Hz row names 6.7 um, where the protocol's stimulus is at
    # 6.71 um: every type is checked before the FEM runs, so the run stops
    # before any solve and before fitting SA, whose rows all match
    protocol = write_protocol(tmp_path, [
        sin_spec(50.0, 34.80), sin_spec(20.0, 6.71, duration=345.0, window=245.0),
    ])
    observed = tmp_path / "observed.csv"
    observed.write_text("afferent,freq_hz,amplitude_um,rate_ips\n"
                        "SA,50.0,34.8,20.0\nSA,20.0,6.71,5.0\n"
                        "RA,50.0,34.8,20.0\nRA,20.0,6.7,5.0\n")
    cfg_path = write_config(tmp_path, {
        "protocol": protocol,
        "fit": {"afferents": ["SA", "RA"], "observed_rates_csv": str(observed),
                "population": 4, "budget": 8},
    })
    out = tmp_path / "out"
    with caplog.at_level(logging.INFO, logger="afferentsim"):
        assert cli.main(["fit", "--config", cfg_path, "--out", str(out)]) == 2
    assert "no RA stimulus for observed conditions: (20.0 Hz, 6.7 um)" in caplog.text
    assert "FEM solved" not in caplog.text and "fitting" not in caplog.text
    assert os.listdir(out) == []


def test_cli_fit_rejects_empty_observed(tmp_path):
    protocol = write_protocol(tmp_path, [sin_spec(50.0, 34.80)])
    observed = tmp_path / "observed.csv"
    observed.write_text("afferent,freq_hz,amplitude_um,rate_ips\n")
    cfg_path = write_config(tmp_path, {
        "protocol": protocol,
        "fit": {"afferents": ["RA"], "observed_rates_csv": str(observed),
                "population": 4, "budget": 8},
    })
    assert cli.main(["fit", "--config", cfg_path,
                     "--out", str(tmp_path / "out")]) == 2


def test_load_afferent_params_sources(tmp_path):
    defaults = pipeline.load_afferent_params("default")
    assert set(defaults) == {"SA", "RA", "PC"}

    ra = neural.default_afferent_params()["RA"]
    tweaked = neural.AfferentParams.from_dict({**ra.to_dict(), "tau_m_ms": 123.0})
    selected = tmp_path / "selected.json"
    selected.write_text(json.dumps(
        {"afferent": "RA", "params": tweaked.to_dict(), "provenance": {}}
    ))
    loaded = pipeline.load_afferent_params(str(selected))
    assert loaded["RA"].tau_m_ms == 123.0
    assert loaded["SA"] == defaults["SA"]

    mapping = tmp_path / "mapping.json"
    mapping.write_text(json.dumps({"PC": tweaked.to_dict() | {
        "afferent_type": "PC", "a3_pa_per_ms": None, "a4_pa_per_ms2": 20.0
    }}))
    loaded = pipeline.load_afferent_params(str(mapping))
    assert loaded["PC"].a4_pa_per_ms2 == 20.0

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"XX": ra.to_dict()}))
    with pytest.raises(ValidationError):
        pipeline.load_afferent_params(str(bad))


_RA = neural.default_afferent_params()["RA"].to_dict()


@pytest.mark.parametrize("raw", [
    pytest.param([1, 2], id="not-an-object"),
    pytest.param({"RA": 3}, id="entry-not-an-object"),
    pytest.param({"RA": {**_RA, "bogus": 1.0}}, id="unknown-field"),
    pytest.param({"RA": {k: v for k, v in _RA.items() if k != "tau_m_ms"}},
                 id="missing-field"),
    pytest.param({"RA": {**_RA, "tau_m_ms": "abc"}}, id="non-numeric-value"),
    pytest.param({"SA": _RA}, id="type-differs-from-key"),
    pytest.param({"afferent": "RA", "params": [1]}, id="selected-params-not-an-object"),
    pytest.param({"afferent": "SA", "params": _RA}, id="selected-type-differs-from-params"),
])
def test_load_afferent_params_rejects(tmp_path, raw):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValidationError, match="params.json"):
        pipeline.load_afferent_params(str(path))


def test_cli_simulate_bad_params_exits_2_before_fem(tmp_path, caplog):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"SA": _RA}))
    protocol = write_protocol(tmp_path, [sin_spec(50.0, 34.80)])
    cfg_path = write_config(
        tmp_path, {"protocol": protocol, "afferent_params": {"path": str(params)}}
    )
    out = tmp_path / "out"
    with caplog.at_level(logging.ERROR, logger="afferentsim"):
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    assert "'SA' holds RA params" in caplog.text
    assert not (out / "mesh.txt").exists()  # refused before the FEM


@pytest.mark.parametrize("atype, name, value", [
    ("RA", "tau_m_ms", True),  # a bool is not the number 1
    ("SA", "m1", True),
    ("SA", "m1", 9.5),  # filter widths are JSON integers
    ("PC", "alpha_prime", float("inf")),
], ids=["bool-number", "bool-integer", "fractional-integer", "infinite-number"])
def test_cli_simulate_params_field_of_wrong_kind_exits_2(tmp_path, caplog, atype, name,
                                                         value):
    params = tmp_path / "params.json"
    entry = neural.default_afferent_params()[atype].to_dict() | {name: value}
    params.write_text(json.dumps({atype: entry}))
    protocol = write_protocol(tmp_path, [sin_spec(50.0, 34.80)])
    cfg_path = write_config(
        tmp_path, {"protocol": protocol, "afferent_params": {"path": str(params)}}
    )
    out = tmp_path / "out"
    with caplog.at_level(logging.ERROR, logger="afferentsim"):
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    assert f"{params}: {atype}.{name}: expected" in caplog.text
    assert not (out / "mesh.txt").exists()  # refused before the FEM


def test_cli_fit_rejects_non_numeric_observed(tmp_path, caplog):
    protocol = write_protocol(tmp_path, [sin_spec(50.0, 34.80)])
    observed = tmp_path / "observed.csv"
    observed.write_text("afferent,freq_hz,amplitude_um,rate_ips\nRA,20,abc,5\n")
    cfg_path = write_config(tmp_path, {
        "protocol": protocol,
        "fit": {"afferents": ["RA"], "observed_rates_csv": str(observed),
                "population": 4, "budget": 8},
    })
    with caplog.at_level(logging.INFO, logger="afferentsim"):
        assert cli.main(["fit", "--config", cfg_path,
                         "--out", str(tmp_path / "out")]) == 2
    assert "line 2" in caplog.text
    assert "FEM solved" not in caplog.text  # refused before the FEM


def test_cli_fit_rejects_unknown_observed_afferent(tmp_path, caplog):
    protocol = write_protocol(tmp_path, [sin_spec(50.0, 34.80)])
    observed = tmp_path / "observed.csv"
    observed.write_text("afferent,freq_hz,amplitude_um,rate_ips\nRA,20,10,5\nra,50,10,5\n")
    cfg_path = write_config(tmp_path, {
        "protocol": protocol,
        "fit": {"afferents": ["RA"], "observed_rates_csv": str(observed),
                "population": 4, "budget": 8},
    })
    with caplog.at_level(logging.INFO, logger="afferentsim"):
        assert cli.main(["fit", "--config", cfg_path,
                         "--out", str(tmp_path / "out")]) == 2
    assert "line 3: unknown afferent 'ra'" in caplog.text
    assert "FEM solved" not in caplog.text  # refused before the FEM


def test_spec_descriptor_noise_uses_band_center(tmp_path):
    spec = stimulus.builtin_protocol("appendixC", base_seed=0)[0]
    cfg = config.config_from_dict({"protocol": write_protocol(tmp_path, [spec])})
    for record in pipeline.simulate(cfg).records:
        freq, amp = record.freq_hz, record.amplitude_um
        assert freq == (spec.lo_hz + spec.hi_hz) / 2.0
        assert amp == spec.rms_um


def test_pipeline_stages_write_no_file(tmp_path_factory, monkeypatch):
    inputs = tmp_path_factory.mktemp("inputs")
    specs = [sin_spec(50.0, 113.60), sin_spec(100.0, 55.39)]
    protocol = write_protocol(inputs, specs)
    observed = inputs / "observed.csv"
    observed.write_text("afferent,freq_hz,amplitude_um,rate_ips\n"
                        "RA,50.0,113.6,20.0\nRA,100.0,55.39,30.0\n")
    cfg = config.config_from_dict({
        "protocol": protocol,
        "fit": {"afferents": ["RA"], "observed_rates_csv": str(observed),
                "population": 4, "budget": 8},
    })
    workdir = tmp_path_factory.mktemp("empty")
    monkeypatch.chdir(workdir)

    simulated = pipeline.simulate(cfg)
    assert list(simulated.bank) == [s.stimulus_id for s in specs]
    assert len(simulated.trains) == len(simulated.records) == 2 * len(mesh.AFFERENT_TYPES)
    assert pipeline.validate(cfg).report["passed"]
    fitted = pipeline.fit(cfg)
    assert list(fitted) == ["RA"]
    assert [r.stimulus_id for r in fitted["RA"].records] == [s.stimulus_id for s in specs]
    assert os.listdir(workdir) == []
    assert sorted(os.listdir(inputs)) == ["observed.csv", "protocol.json"]


def test_cli_fit_writes_the_error_record_of_an_undefined_regression(tmp_path):
    # five equal observed rates leave every slope undefined; 100 Hz has two
    # observed rows, too few for a regression of its own, so it has no entry
    specs = [sin_spec(50.0, a) for a in (34.80, 55.39, 113.60)]
    specs += [sin_spec(100.0, a) for a in (19.24, 55.39)]
    observed = tmp_path / "observed.csv"
    observed.write_text("afferent,freq_hz,amplitude_um,rate_ips\n" + "".join(
        f"RA,{s.freq_hz},{s.amplitude_um},20.0\n" for s in specs))
    cfg_path = write_config(tmp_path, {
        "protocol": write_protocol(tmp_path, specs),
        "fit": {"afferents": ["RA"], "observed_rates_csv": str(observed),
                "population": 4, "budget": 8},
    })
    out = tmp_path / "out"
    assert cli.main(["fit", "--config", cfg_path, "--out", str(out)]) == 0
    reg = json.loads((out / "regression_RA.json").read_text())
    assert reg.pop("provenance").startswith("afferentsim=")
    undefined = {"error": "observed values are all equal; slope is undefined"}
    assert reg == {"pooled": undefined, "per_frequency": {"50": undefined}}


def test_fit_predicted_rates_equal_predict_rates(tmp_path, default_mesh):
    """The fit reports the selected candidate's rates from the search's own
    counts: bit for bit predict_rates(selected, bank) on every condition,
    the 300 Hz one without an observed rate included."""
    specs = [
        sin_spec(20.0, 250.0, duration=345.0, window=245.0),
        sin_spec(50.0, 113.60),
        sin_spec(100.0, 55.39),
        sin_spec(300.0, 19.24),
    ]
    observed = tmp_path / "observed.csv"
    observed.write_text("afferent,freq_hz,amplitude_um,rate_ips\n" + "".join(
        f"{atype},{s.freq_hz},{s.amplitude_um},{rate}\n"
        for atype in mesh.AFFERENT_TYPES for s, rate in zip(specs[:3], (8.0, 40.0, 60.0))
    ))
    cfg = config.config_from_dict({
        "protocol": write_protocol(tmp_path, specs),
        "fit": {"observed_rates_csv": str(observed), "population": 8, "budget": 24},
    })
    fitted = pipeline.fit(cfg)
    bank = pipeline.stress_bank(cfg, default_mesh, specs)
    for atype in mesh.AFFERENT_TYPES:
        outcome, records = fitted[atype].outcome, fitted[atype].records
        expected = optimize.predict_rates(outcome.selected, {
            (s.freq_hz, s.amplitude_um): (s, bank[s.stimulus_id][atype]) for s in specs
        })
        got = [(r.freq_hz, r.amplitude_um, r.predicted_ips) for r in records]
        assert np.array(got).tobytes() == np.array(expected).tobytes(), atype
        assert [r.observed_ips is None for r in records] == [False] * 3 + [True]


@pytest.mark.parametrize("stimulus_id", [
    "../../escaped", "sub/dir", "back\\slash", "..", ".", "",
])
def test_cli_simulate_rejects_stimulus_id_not_a_file_name(tmp_path, caplog, stimulus_id):
    spec = dict(sin_fields(50.0, 34.80), stimulus_id=stimulus_id)
    cfg_path = write_config(tmp_path, {"protocol": write_protocol(tmp_path, [spec])})
    out = tmp_path / "a" / "out"
    with caplog.at_level(logging.ERROR, logger="afferentsim"):
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    assert f"stimulus_id {stimulus_id!r} is not a plain file name" in caplog.text
    assert os.listdir(out) == []  # refused before the FEM
    assert os.listdir(tmp_path / "a") == ["out"]


@pytest.mark.parametrize("stimulus_id", ["a,b", "tab\tid", "new\nline", '"x'])
def test_cli_simulate_rejects_stimulus_id_not_a_csv_cell(tmp_path, caplog, stimulus_id):
    # "a,b" would write a 7-cell row under rates.csv's 6-column header, and
    # a leading '"' opens a quoted cell that a CSV reader runs on into the
    # next rows
    spec = dict(sin_fields(50.0, 34.80), stimulus_id=stimulus_id)
    protocol = write_protocol(tmp_path, [spec])
    cfg_path = write_config(tmp_path, {"protocol": protocol})
    out = tmp_path / "out"
    with caplog.at_level(logging.ERROR, logger="afferentsim"):
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    assert (f"{protocol}: stimulus #0: stimulus_id {stimulus_id!r} holds a comma, "
            "a double quote or a non-printable character") in caplog.text
    assert os.listdir(out) == []  # refused before anything is written


@pytest.mark.parametrize("command, raw", [
    (["fit", "--seed", "-1"], {"fit": {"observed_rates_csv": "observed.csv"}}),
    (["simulate", "--protocol", "appendixC"], {"seed": -3}),
], ids=["fit-seed-flag", "appendixC-config-seed"])
def test_cli_rejects_negative_seed(tmp_path, caplog, command, raw):
    # unchecked, np.random.default_rng fails on it with a traceback (exit 1),
    # fit only after building its whole FEM bank
    cfg_path = write_config(tmp_path, raw)
    out = tmp_path / "out"
    with caplog.at_level(logging.ERROR, logger="afferentsim"):
        assert cli.main([*command, "--config", cfg_path, "--out", str(out)]) == 2
    assert "seed must be >= 0" in caplog.text
    assert not out.exists()


def test_cli_refuses_probe_whose_squared_radius_overflows(tmp_path, caplog):
    # unchecked, radius**2 raises OverflowError: a traceback and exit 1
    cfg_path = write_config(tmp_path, {"indenter": {"diameter_mm": 1e200}})
    out = tmp_path / "out"
    with caplog.at_level(logging.INFO, logger="afferentsim"):
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    assert ("diameter_mm=1e+200 is too large: the square of its radius overflows "
            "a float") in caplog.text
    assert "FEM solved" not in caplog.text
    assert not (out / "rates.csv").exists()


def test_cli_simulate_rejects_negative_noise_seed(tmp_path, caplog):
    spec = dict(
        stimulus_id="noise", kind="bandpass_noise", duration_ms=200.0,
        discard_ms=100.0, window_ms=100.0, lo_hz=10.0, hi_hz=200.0, rms_um=40.0, seed=-1,
    )
    protocol = write_protocol(tmp_path, [spec])
    cfg_path = write_config(tmp_path, {"protocol": protocol})
    out = tmp_path / "out"
    with caplog.at_level(logging.ERROR, logger="afferentsim"):
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    assert f"{protocol}: stimulus #0: noise: seed must be >= 0, got -1" in caplog.text
    assert not (out / "rates.csv").exists()


def test_cli_out_naming_a_file_exits_2(tmp_path, caplog):
    cfg_path = write_config(tmp_path, {})
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    for out in (taken, taken / "sub"):
        caplog.clear()
        with caplog.at_level(logging.ERROR, logger="afferentsim"):
            assert cli.main(["mesh", "--config", cfg_path, "--out", str(out)]) == 2
        assert f"cannot create output directory {str(out)!r}" in caplog.text
    assert taken.read_text() == "not a directory\n"
    assert sorted(os.listdir(tmp_path)) == ["config.json", "taken"]


@pytest.mark.parametrize("taken", ["rates.csv", "stress"])
def test_cli_simulate_write_failure_exits_2(tmp_path, taken):
    # rates.csv taken by a directory, or stress/ by a file: the failed write
    # is reported with its path and exit 2 (not a traceback and exit 1), and
    # the lock is released
    spec = sin_spec(50.0, 34.80)
    cfg_path = write_config(tmp_path, {"protocol": write_protocol(tmp_path, [spec])})
    out = tmp_path / "out"
    if taken == "rates.csv":
        (out / taken).mkdir(parents=True)
        target = out / "rates.csv"
    else:
        out.mkdir()
        (out / taken).write_text("")
        target = out / "stress" / f"{spec.stimulus_id}_SA.csv"
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "afferentsim.cli", "simulate", "--config", cfg_path,
         "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert done.returncode == 2, done.stderr
    assert f"ERROR validation error: cannot write {target}: " in done.stderr
    assert "Traceback" not in done.stderr
    assert not (out / ".lock").exists()


@pytest.mark.parametrize("reader", ["config", "protocol", "afferent_params", "observed"])
def test_cli_input_not_utf8_exits_2(tmp_path, reader):
    # a byte that is not UTF-8 in any input file is refused with its path and
    # exit 2, whatever the locale, before the FEM runs
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\n")
    raw = {"protocol": write_protocol(tmp_path, [sin_spec(50.0, 34.80)])}
    command = "fit" if reader == "observed" else "simulate"
    if reader == "protocol":
        raw["protocol"] = str(bad)
    elif reader == "afferent_params":
        raw["afferent_params"] = {"path": str(bad)}
    elif reader == "observed":
        raw["fit"] = {"afferents": ["RA"], "observed_rates_csv": str(bad),
                      "population": 4, "budget": 8}
    cfg_path = str(bad) if reader == "config" else write_config(tmp_path, raw)
    out = tmp_path / "out"
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "afferentsim.cli", command, "--config", cfg_path,
         "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=src, PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
                 LC_ALL="C"),
        capture_output=True, text=True, errors="replace",
    )
    assert done.returncode == 2, done.stderr
    assert "ERROR validation error: cannot read " in done.stderr
    assert str(bad) in done.stderr
    assert "Traceback" not in done.stderr
    if reader == "config":
        assert not out.exists()  # refused before anything is written
    else:
        assert os.listdir(out) == []  # no output and no .lock


def test_load_protocol_reads_utf8_whatever_the_locale(tmp_path):
    # the id's é as its two UTF-8 bytes, not as a JSON \u escape; so too
    # the output directory a config names
    path = tmp_path / "protocol.json"
    write_protocol_file([sin_spec(50.0, 34.80)], path)
    path.write_bytes(path.read_bytes().replace(b"sin_050hz_034.80um", "sin_\u00e9".encode()))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_bytes('{"output_dir": "out_\u00e9"}'.encode())
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    code = ("import sys\nfrom afferentsim import config, stimulus\n"
            "(spec,) = stimulus.load_protocol(sys.argv[1])\n"
            "assert spec.stimulus_id == 'sin_\\u00e9', ascii(spec.stimulus_id)\n"
            "cfg = config.load_config(sys.argv[2])\n"
            "assert cfg.output_dir == 'out_\\u00e9', ascii(cfg.output_dir)")
    done = subprocess.run(
        [sys.executable, "-c", code, str(path), str(cfg_path)],
        env=dict(os.environ, PYTHONPATH=src, PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
                 LC_ALL="C"),
        capture_output=True, text=True, errors="replace",
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("name", ["stimulus_id", "output_dir"])
def test_cli_name_the_locale_cannot_encode_exits_2(tmp_path, name):
    # under the C locale the filesystem encoding is ASCII: a stress export
    # named by a stimulus id holding é, or an output directory so named in
    # the config, cannot be created, and the run says so with exit 2, not
    # with a traceback, before the FEM runs and before anything is written
    spec = sin_spec(50.0, 34.80)
    out = tmp_path / "out"
    if name == "stimulus_id":
        spec = dataclasses.replace(spec, stimulus_id="sin_\u00e9")
    else:
        out = tmp_path / "out_\u00e9"
    raw = {"protocol": write_protocol(tmp_path, [spec]), "output_dir": str(out)}
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "afferentsim.cli", "simulate",
         "--config", write_config(tmp_path, raw)],
        env=dict(os.environ, PYTHONPATH=src, PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
                 LC_ALL="C"),
        capture_output=True, text=True, errors="replace",
    )
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    if name == "output_dir":
        assert "ERROR validation error: cannot create output directory" in done.stderr
        assert not out.exists()
    else:
        assert "cannot name a file in this filesystem's encoding" in done.stderr
        assert "FEM solved" not in done.stderr
        assert os.listdir(out) == []  # no output and no .lock


def test_cli_is_the_only_module_that_opens_files_for_writing(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path, {})
    observed = tmp_path / "observed.csv"
    fit_cfg = write_config(tmp_path, {"fit": {
        "observed_rates_csv": str(observed), "population": 8, "budget": 16,
    }}, name="fit.json")
    real_open = builtins.open
    writes = []

    def spy(file, mode="r", *args, **kwargs):
        if set(mode) & set("wax+"):
            writes.append((sys._getframe(1).f_globals.get("__name__"), str(file)))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy)
    for command, cfg in [("mesh", cfg_path), ("validate", cfg_path),
                         ("simulate", cfg_path), ("fit", fit_cfg)]:
        out = tmp_path / command
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 0, command
        if command == "simulate":  # appendixA's rates, nudged, are the fit's observations
            observed.write_text("afferent,freq_hz,amplitude_um,rate_ips\n" + "".join(
                f"{r[0]},{r[2]},{r[3]},{float(r[4]) + 1.0}\n"
                for r in (ln.split(",") for ln in (out / "rates.csv").read_text().splitlines())
                if r[0] in ("SA", "RA", "PC")
            ))
    assert {module for module, _ in writes} == {"afferentsim.cli"}
    # every output file was written through such an open, and each once
    outputs = [os.path.join(dirpath, name)
               for command in ("mesh", "validate", "simulate", "fit")
               for dirpath, _, names in os.walk(tmp_path / command) for name in names]
    assert sorted(path for _, path in writes) == sorted(outputs)
    assert len(outputs) == 2 + 2 + 4 + 111 + 4 * 3 + 1


def _output_files(root):
    """{relative path: bytes} of every file under root, with config_resolved.json
    read as JSON and its output_dir dropped (the one field that names the
    directory)."""
    files = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            with open(path, "rb") as fh:
                files[rel] = fh.read()
            if name == "config_resolved.json":
                resolved = json.loads(files[rel])
                del resolved["output_dir"]
                files[rel] = resolved
    return files


@pytest.mark.parametrize("command", ["simulate", "fit"])
def test_cli_closes_every_file_it_opens(tmp_path, command):
    # cli.main freezes the objects the imports made, so no full collection
    # looks at them again, at exit included.  Nothing may depend on the
    # collector: in a development-mode interpreter that turns ResourceWarning
    # into an error, a file left open for it to close would show on stderr.
    # The run's files must also equal an in-process run's byte for byte.
    specs = [sin_spec(20.0, 85.0, duration=345.0, window=245.0)] + [
        sin_spec(freq, amp) for freq in (50.0, 100.0, 300.0) for amp in (10.0, 85.0)
    ]
    protocol = write_protocol(tmp_path, specs)
    observed = tmp_path / "observed.csv"
    observed.write_text("afferent,freq_hz,amplitude_um,rate_ips\n" + "".join(
        f"RA,{s.freq_hz!r},{s.amplitude_um!r},{10.0 + s.amplitude_um / 10.0!r}\n"
        for s in specs
    ))
    cfg_path = write_config(tmp_path, {"protocol": protocol, "fit": {
        "afferents": ["RA"], "observed_rates_csv": str(observed),
        "population": 8, "budget": 24,
    }})
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    fresh = tmp_path / "fresh"
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "afferentsim.cli",
         command, "--config", cfg_path, "--out", str(fresh)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert "ResourceWarning" not in done.stderr
    assert "Exception ignored" not in done.stderr
    in_process = tmp_path / "in-process"
    assert cli.main([command, "--config", cfg_path, "--out", str(in_process)]) == 0
    expected = _output_files(in_process)
    assert "config_resolved.json" in expected and len(expected) > 2
    assert _output_files(fresh) == expected
