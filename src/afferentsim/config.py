"""Run configuration: JSON schema, validation with field paths, hashing.

A config file is a JSON object; everything has a default, so `{}` is a
valid config reproducing the reference setup.  Recognized keys:

{
  "geometry": {
    "domain_width_mm": 20.0,
    "surface_element_mm": 0.2,
    "coarsening": 8.0,
    "afferent_depths_mm": {"SA": 1.0, "RA": 0.75, "PC": 3.0}
  },
  "materials": [
    {"name": "stratum_corneum", "elastic_modulus_mpa": 2.0,
     "poisson_ratio": 0.3, "depth_top_mm": 0.0, "depth_bottom_mm": 0.2},
    ...
  ],
  "indenter": {"diameter_mm": 1.0, "center_x_mm": 0.0,
               "pre_indentation_mm": 0.0},
  "dt_ms": 0.5,
  "protocol": "appendixA",            # or a protocol JSON path
  "afferent_params": "default",       # or {"path": "selected_RA.json"}: a
                                      # fit's selected_<TYPE>.json export, or
                                      # a JSON mapping {TYPE: params}
  "seed": 0,
  "output_dir": "out",
  "fit": {
    "afferents": ["SA", "RA", "PC"],
    "observed_rates_csv": null,       # required by the fit command
    "population": 100,
    "budget": 10000
  }
}
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

from .errors import ValidationError
from .mesh import (
    AFFERENT_TYPES,
    GeometrySpec,
    MaterialLayer,
    default_afferent_depths,
    default_material_layers,
)


@dataclass
class FitConfig:
    afferents: tuple[str, ...] = ("SA", "RA", "PC")
    observed_rates_csv: str | None = None
    population: int = 100
    budget: int = 10000

    def validate(self) -> None:
        for a in self.afferents:
            if a not in AFFERENT_TYPES:
                raise ValidationError(f"fit.afferents: unknown type {a!r}")
        if self.population < 2:
            raise ValidationError("fit.population must be >= 2")
        if self.budget < self.population:
            raise ValidationError("fit.budget must be >= fit.population")


@dataclass
class RunConfig:
    geometry: GeometrySpec = field(default_factory=GeometrySpec)
    materials: tuple[MaterialLayer, ...] = field(default_factory=default_material_layers)
    indenter_diameter_mm: float = 1.0
    indenter_center_x_mm: float = 0.0
    indenter_pre_indentation_mm: float = 0.0
    dt_ms: float = 0.5
    protocol: str = "appendixA"
    afferent_params_source: str = "default"  # "default" or a path
    seed: int = 0
    output_dir: str = "out"
    fit: FitConfig = field(default_factory=FitConfig)

    def validate(self) -> None:
        try:
            for m in self.materials:
                m.validate()
            self.geometry.validate(self.materials)
        except ValidationError as exc:
            raise ValidationError(f"geometry/materials: {exc}") from exc
        if not self.indenter_diameter_mm > 0:
            raise ValidationError("indenter.diameter_mm must be > 0")
        if self.indenter_pre_indentation_mm < 0:
            raise ValidationError("indenter.pre_indentation_mm must be >= 0")
        if not self.dt_ms > 0:
            raise ValidationError("dt_ms must be > 0")
        if not isinstance(self.seed, int):
            raise ValidationError("seed must be an integer")
        self.fit.validate()

    def to_dict(self) -> dict:
        return {
            "geometry": {
                "domain_width_mm": self.geometry.domain_width_mm,
                "surface_element_mm": self.geometry.surface_element_mm,
                "coarsening": self.geometry.coarsening,
                "afferent_depths_mm": dict(sorted(self.geometry.afferent_depths_mm.items())),
            },
            "materials": [
                {
                    "name": m.name,
                    "elastic_modulus_mpa": m.elastic_modulus_mpa,
                    "poisson_ratio": m.poisson_ratio,
                    "depth_top_mm": m.depth_range[0],
                    "depth_bottom_mm": m.depth_range[1],
                }
                for m in self.materials
            ],
            "indenter": {
                "diameter_mm": self.indenter_diameter_mm,
                "center_x_mm": self.indenter_center_x_mm,
                "pre_indentation_mm": self.indenter_pre_indentation_mm,
            },
            "dt_ms": self.dt_ms,
            "protocol": self.protocol,
            "afferent_params": (
                "default" if self.afferent_params_source == "default"
                else {"path": self.afferent_params_source}
            ),
            "seed": self.seed,
            "output_dir": self.output_dir,
            "fit": {
                "afferents": list(self.fit.afferents),
                "observed_rates_csv": self.fit.observed_rates_csv,
                "population": self.fit.population,
                "budget": self.fit.budget,
            },
        }

    def content_hash(self) -> str:
        """Hash of everything that affects results; output routing excluded."""
        d = self.to_dict()
        del d["output_dir"]
        blob = json.dumps(d, sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _expect(obj, key, types, path, default):
    if key not in obj:
        return default
    val = obj[key]
    if types is not None and not isinstance(val, types):
        raise ValidationError(f"{path}.{key}: expected {types}, got {type(val).__name__}")
    return val


def _reject_unknown(obj: dict, known: set, path: str) -> None:
    unknown = set(obj) - known
    if unknown:
        raise ValidationError(f"unknown {path} keys: {sorted(unknown)}")


def _num(obj, key, path, default):
    val = _expect(obj, key, (int, float), path, default)
    if isinstance(val, bool):
        raise ValidationError(f"{path}.{key}: expected a number")
    return float(val)


def config_from_dict(raw: dict, base_dir: str = ".") -> RunConfig:
    if not isinstance(raw, dict):
        raise ValidationError("config root must be a JSON object")
    known = {
        "geometry", "materials", "indenter", "dt_ms", "protocol",
        "afferent_params", "seed", "output_dir", "fit",
    }
    _reject_unknown(raw, known, "config")

    g = _expect(raw, "geometry", dict, "config", {})
    _reject_unknown(g, {
        "domain_width_mm", "surface_element_mm", "coarsening", "afferent_depths_mm",
    }, "geometry")
    depths_raw = _expect(g, "afferent_depths_mm", dict, "geometry", None)
    if depths_raw is None:
        depths = default_afferent_depths()
    else:
        depths = {}
        for k, v in depths_raw.items():
            if k not in AFFERENT_TYPES:
                raise ValidationError(f"geometry.afferent_depths_mm: unknown type {k!r}")
            depths[k] = float(v)
    geometry = GeometrySpec(
        domain_width_mm=_num(g, "domain_width_mm", "geometry", 20.0),
        surface_element_mm=_num(g, "surface_element_mm", "geometry", 0.2),
        coarsening=_num(g, "coarsening", "geometry", 8.0),
        afferent_depths_mm=depths,
    )

    mats_raw = _expect(raw, "materials", list, "config", None)
    if mats_raw is None:
        materials = default_material_layers()
    else:
        materials = []
        for i, m in enumerate(mats_raw):
            path = f"materials[{i}]"
            if not isinstance(m, dict):
                raise ValidationError(f"{path}: expected an object")
            _reject_unknown(m, {
                "name", "elastic_modulus_mpa", "poisson_ratio",
                "depth_top_mm", "depth_bottom_mm",
            }, path)
            try:
                materials.append(MaterialLayer(
                    name=str(m["name"]),
                    elastic_modulus_mpa=float(m["elastic_modulus_mpa"]),
                    poisson_ratio=float(m["poisson_ratio"]),
                    depth_range=(float(m["depth_top_mm"]), float(m["depth_bottom_mm"])),
                ))
            except KeyError as exc:
                raise ValidationError(f"{path}: missing field {exc.args[0]}") from exc
        materials = tuple(materials)

    ind = _expect(raw, "indenter", dict, "config", {})
    _reject_unknown(ind, {"diameter_mm", "center_x_mm", "pre_indentation_mm"},
                    "indenter")

    ap = raw.get("afferent_params", "default")
    if ap == "default":
        ap_source = "default"
    elif isinstance(ap, dict) and "path" in ap:
        ap_source = os.path.join(base_dir, ap["path"]) if not os.path.isabs(ap["path"]) else ap["path"]
    else:
        raise ValidationError('afferent_params: expected "default" or {"path": ...}')

    fit_raw = _expect(raw, "fit", dict, "config", {})
    _reject_unknown(fit_raw, {
        "afferents", "observed_rates_csv", "population", "budget",
    }, "fit")
    aff = fit_raw.get("afferents", list(AFFERENT_TYPES))
    if not isinstance(aff, list):
        raise ValidationError("fit.afferents: expected a list")
    obs = fit_raw.get("observed_rates_csv")
    if obs is not None:
        obs = os.path.join(base_dir, obs) if not os.path.isabs(obs) else obs
    fit = FitConfig(
        afferents=tuple(aff),
        observed_rates_csv=obs,
        population=int(_num(fit_raw, "population", "fit", 100)),
        budget=int(_num(fit_raw, "budget", "fit", 10000)),
    )

    protocol = _expect(raw, "protocol", str, "config", "appendixA")
    if protocol not in ("appendixA", "appendixB", "appendixC") and not os.path.isabs(protocol):
        candidate = os.path.join(base_dir, protocol)
        if os.path.exists(candidate):
            protocol = candidate

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValidationError("seed: expected an integer")

    cfg = RunConfig(
        geometry=geometry,
        materials=materials,
        indenter_diameter_mm=_num(ind, "diameter_mm", "indenter", 1.0),
        indenter_center_x_mm=_num(ind, "center_x_mm", "indenter", 0.0),
        indenter_pre_indentation_mm=_num(ind, "pre_indentation_mm", "indenter", 0.0),
        dt_ms=_num(raw, "dt_ms", "config", 0.5),
        protocol=protocol,
        afferent_params_source=ap_source,
        seed=seed,
        output_dir=str(_expect(raw, "output_dir", str, "config", "out")),
        fit=fit,
    )
    cfg.validate()
    return cfg


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw, base_dir=os.path.dirname(os.path.abspath(path)))


def save_resolved_config(cfg: RunConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
