"""Prediction-model registry (the CoCoPeLia extension mechanism).

Section IV-B: new models are added by defining a
``CoCoPeLia_predict_[ModelName]`` function.  Here that is a plain
registration: any callable with the shared predictor signature can be
registered under a name and used by the tile-selection runtime.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..errors import ModelError
from .instantiation import MachineModels
from .params import CoCoProblem
from . import models as _models

Predictor = Callable[[CoCoProblem, int, MachineModels, bool], float]

MODEL_REGISTRY: Dict[str, Predictor] = {}


def register_model(name: str, predictor: Predictor,
                   overwrite: bool = False) -> None:
    """Register a predictor under ``name`` (lowercase)."""
    key = name.lower()
    if key in MODEL_REGISTRY and not overwrite:
        raise ModelError(f"model {name!r} is already registered")
    MODEL_REGISTRY[key] = predictor


def available_models() -> List[str]:
    return sorted(MODEL_REGISTRY)


def resolve_model(name: str, problem: CoCoProblem) -> str:
    """Resolve 'auto' to the per-level recommendation of Section III-C:
    BTS (Eq. 4) for level-1/2, DR (Eq. 5) for level-3."""
    key = name.lower()
    if key == "auto":
        return "dr" if problem.level == 3 else "bts"
    if key not in MODEL_REGISTRY:
        raise ModelError(
            f"unknown model {name!r}; available: {available_models()} or 'auto'"
        )
    return key


def predict(
    model_name: str,
    problem: CoCoProblem,
    t: int,
    models: MachineModels,
    interpolate: bool = False,
) -> float:
    """Predict offload time with the named model ('auto' allowed)."""
    key = resolve_model(model_name, problem)
    return MODEL_REGISTRY[key](problem, t, models, interpolate)


# Built-in models.
register_model("cso", _models.predict_cso)
register_model("baseline", _models.predict_baseline)
register_model("dataloc", _models.predict_dataloc)
register_model("bts", _models.predict_bts)
register_model("dr", _models.predict_dr)
# Analysis bounds (not selectors from the paper; useful for reports).
register_model("serial", _models.predict_serial)
register_model("ideal", _models.predict_ideal)
