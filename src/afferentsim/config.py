"""Run configuration: JSON schema, validation with field paths, hashing.

A config file is a JSON object; every key is optional, so `{}` is a valid
config reproducing the reference setup.  The key tables below name each
JSON object's keys and the kind of value each takes; the dataclasses hold
the defaults of the keys left out.  README's configuration section shows
the whole schema with its defaults.  `protocol` is a built-in protocol name
or a protocol JSON path; `afferent_params` is "default" or {"path": ...},
a fit's selected_<TYPE>.json export or a JSON mapping {TYPE: params}.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field

from .errors import INTEGER, NUMBER, STRING, ValidationError, check_kind, short_digest
from .mesh import AFFERENT_TYPES, GeometrySpec, MaterialLayer, default_material_layers
from .stimulus import BUILTIN_PROTOCOLS, DT_MS, check_dt, load_protocol


@dataclass
class FitConfig:
    afferents: tuple[str, ...] = AFFERENT_TYPES
    observed_rates_csv: str | None = None
    population: int = 100
    budget: int = 10000

    def validate(self) -> None:
        if not self.afferents:
            raise ValidationError("fit.afferents must name at least one type")
        for a in self.afferents:
            if a not in AFFERENT_TYPES:
                raise ValidationError(f"fit.afferents: unknown type {a!r}")
        if len(set(self.afferents)) < len(self.afferents):
            raise ValidationError(
                f"fit.afferents: {list(self.afferents)} names a type twice"
            )
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
    protocol: str = "appendixA"
    afferent_params_source: str = "default"  # "default" or a path
    seed: int = 0
    output_dir: str = "out"
    fit: FitConfig = field(default_factory=FitConfig)

    def validate(self) -> None:
        try:
            self.geometry.validate(self.materials)
        except ValidationError as exc:
            raise ValidationError(f"geometry/materials: {exc}") from exc
        if not self.indenter_diameter_mm > 0:
            raise ValidationError("indenter.diameter_mm must be > 0")
        if self.indenter_pre_indentation_mm < 0:
            raise ValidationError("indenter.pre_indentation_mm must be >= 0")
        if not isinstance(self.seed, int):
            raise ValidationError("seed must be an integer")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        self.fit.validate()

    def to_dict(self) -> dict:
        fit = asdict(self.fit)
        fit["afferents"] = list(self.fit.afferents)
        return {
            "geometry": asdict(self.geometry),
            "materials": [
                {"name": m.name, "elastic_modulus_mpa": m.elastic_modulus_mpa,
                 "poisson_ratio": m.poisson_ratio, "depth_top_mm": m.depth_range[0],
                 "depth_bottom_mm": m.depth_range[1]}
                for m in self.materials
            ],
            "indenter": {key: getattr(self, f"indenter_{key}") for key in _INDENTER},
            "dt_ms": DT_MS,  # fixed, yet part of every resolved config and its hash
            "protocol": self.protocol,
            "afferent_params": (
                "default" if self.afferent_params_source == "default"
                else {"path": self.afferent_params_source}
            ),
            "seed": self.seed,
            "output_dir": self.output_dir,
            "fit": fit,
        }

    def content_hash(self) -> str:
        """Hash of everything that affects results; output routing excluded.

        Input files enter by their content, not their paths, so the same
        inputs hash the same in any directory: a protocol file by the stimuli
        it loads to, each other file by its bytes.  A file that cannot be read
        (one this command does not use) enters by its path.
        """
        d = self.to_dict()
        del d["output_dir"]
        if self.afferent_params_source != "default":
            d["afferent_params"] = _file_digest(self.afferent_params_source)
        if self.fit.observed_rates_csv is not None:
            d["fit"]["observed_rates_csv"] = _file_digest(self.fit.observed_rates_csv)
        if self.protocol not in BUILTIN_PROTOCOLS:
            d["protocol"] = _protocol_digest(self.protocol)
        return short_digest(d)


def _file_digest(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            return {"sha256": hashlib.sha256(fh.read()).hexdigest()}
    except OSError:
        return {"path": path}


def _protocol_digest(path: str) -> list | dict:
    """A protocol file's stimuli as the run reads them, each number a float:
    files that spell the same stimuli differently (200 or 200.0, another key
    order, a restated dt_ms) hash alike.  A file that does not load enters by
    its bytes."""
    try:
        specs = load_protocol(path)
    except ValidationError:
        return _file_digest(path)
    return [{name: float(value) if isinstance(value, int) and name != "seed" else value
             for name, value in asdict(spec).items()} for spec in specs]


OBJECT = ("an object", dict)
LIST = ("a list", list)

# One table per JSON object: its keys and the kind of value each takes.
_TOP = {
    "geometry": OBJECT, "materials": LIST, "indenter": OBJECT, "dt_ms": NUMBER,
    "protocol": STRING, "afferent_params": ('"default" or {"path": ...}', (str, dict)),
    "seed": INTEGER, "output_dir": STRING, "fit": OBJECT,
}
_GEOMETRY = {
    "domain_width_mm": NUMBER, "surface_element_mm": NUMBER, "coarsening": NUMBER,
    "afferent_depths_mm": OBJECT,
}
_AFFERENT_DEPTHS = dict.fromkeys(AFFERENT_TYPES, NUMBER)
_MATERIAL = {
    "name": STRING, "elastic_modulus_mpa": NUMBER, "poisson_ratio": NUMBER,
    "depth_top_mm": NUMBER, "depth_bottom_mm": NUMBER,
}
_INDENTER = dict.fromkeys(("diameter_mm", "center_x_mm", "pre_indentation_mm"), NUMBER)
_AFFERENT_PARAMS = {"path": STRING}
_FIT = {
    "afferents": LIST, "observed_rates_csv": ("a string or null", (str, type(None))),
    "population": INTEGER, "budget": INTEGER,
}


def _fields(obj: dict, table: dict, path: str = "") -> dict:
    """The keys present in the JSON object `obj`, each checked as its kind in `table`."""
    unknown = sorted(set(obj) - set(table))
    if unknown:
        raise ValidationError(f"unknown {path or 'config'} keys: {unknown}")
    prefix = f"{path}." if path else ""
    return {key: check_kind(value, table[key], prefix + key) for key, value in obj.items()}


def _material(raw, path: str) -> MaterialLayer:
    m = _fields(check_kind(raw, OBJECT, path), _MATERIAL, path)
    missing = [key for key in _MATERIAL if key not in m]
    if missing:
        raise ValidationError(f"{path}: missing field {missing[0]}")
    return MaterialLayer(
        m["name"], m["elastic_modulus_mpa"], m["poisson_ratio"],
        (m["depth_top_mm"], m["depth_bottom_mm"]),
    )


def config_from_dict(raw: dict, base_dir: str = ".") -> RunConfig:
    """Check `raw` against the key tables; relative paths are taken from `base_dir`."""
    if not isinstance(raw, dict):
        raise ValidationError("config root must be a JSON object")
    top = _fields(raw, _TOP)
    if "geometry" in top:
        geometry = _fields(top["geometry"], _GEOMETRY, "geometry")
        if "afferent_depths_mm" in geometry:
            geometry["afferent_depths_mm"] = _fields(
                geometry["afferent_depths_mm"], _AFFERENT_DEPTHS,
                "geometry.afferent_depths_mm",
            )
        top["geometry"] = GeometrySpec(**geometry)
    if "materials" in top:
        top["materials"] = tuple(
            _material(m, f"materials[{i}]") for i, m in enumerate(top["materials"])
        )
    if "dt_ms" in top:
        check_dt(top.pop("dt_ms"), "dt_ms")
    for key, value in _fields(top.pop("indenter", {}), _INDENTER, "indenter").items():
        top[f"indenter_{key}"] = value
    params = top.pop("afferent_params", "default")
    if isinstance(params, dict) and "path" in params:
        path = _fields(params, _AFFERENT_PARAMS, "afferent_params")["path"]
        top["afferent_params_source"] = os.path.join(base_dir, path)
    elif params != "default":
        raise ValidationError('afferent_params: expected "default" or {"path": ...}')
    if "fit" in top:
        fit = _fields(top["fit"], _FIT, "fit")
        if "afferents" in fit:
            fit["afferents"] = tuple(fit["afferents"])
        if fit.get("observed_rates_csv") is not None:
            fit["observed_rates_csv"] = os.path.join(base_dir, fit["observed_rates_csv"])
        top["fit"] = FitConfig(**fit)
    if "protocol" in top and top["protocol"] not in BUILTIN_PROTOCOLS:
        candidate = os.path.join(base_dir, top["protocol"])
        if os.path.exists(candidate):
            top["protocol"] = candidate
    cfg = RunConfig(**top)
    cfg.validate()
    return cfg


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw, base_dir=os.path.dirname(os.path.abspath(path)))
