"""Semi-empirical transfer-time sub-models (paper Section IV-A).

The latency/bandwidth form the deployment module fits:

    t_h2d(bytes) = t_l + t_b * bytes            (unidirectional)
    t_h2d_bid    = sl  * t_h2d                  (opposite link busy)

One :class:`TransferFit` per direction; a :class:`LinkModel` bundles the
two directions plus fit diagnostics (RSE, p-values) for the Table II
reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..errors import ModelError
from ..units import GIGA


@dataclass(frozen=True)
class TransferFit:
    """Fitted coefficients for one transfer direction.

    latency
        ``t_l`` in seconds (mean of single-byte transfer probes).
    sec_per_byte
        ``t_b`` in s/byte from the zero-intercept least-squares fit.
    sl
        Bidirectional slowdown factor (>= 1).
    rse / rse_bid
        Residual standard errors of the uni/bidirectional fits.
    p_value / p_value_bid
        Coefficient p-values of the fits.
    samples
        Number of regression samples used.
    """

    latency: float
    sec_per_byte: float
    sl: float = 1.0
    rse: float = 0.0
    rse_bid: float = 0.0
    p_value: float = 0.0
    p_value_bid: float = 0.0
    samples: int = 0

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ModelError(f"negative fitted latency: {self.latency}")
        if self.sec_per_byte <= 0:
            raise ModelError(f"non-positive fitted t_b: {self.sec_per_byte}")
        if self.sl < 1.0:
            raise ModelError(f"bidirectional slowdown < 1: {self.sl}")

    @property
    def bandwidth(self) -> float:
        """``1/t_b`` in bytes/second."""
        return 1.0 / self.sec_per_byte

    @property
    def bandwidth_gb(self) -> float:
        return self.bandwidth / GIGA

    def time(self, nbytes: float) -> float:
        """Predicted unidirectional transfer time."""
        if nbytes < 0:
            raise ModelError(f"negative transfer size: {nbytes}")
        return self.latency + self.sec_per_byte * nbytes

    def to_dict(self) -> Dict[str, float]:
        return {
            "latency": self.latency,
            "sec_per_byte": self.sec_per_byte,
            "sl": self.sl,
            "rse": self.rse,
            "rse_bid": self.rse_bid,
            "p_value": self.p_value,
            "p_value_bid": self.p_value_bid,
            "samples": self.samples,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, float]) -> "TransferFit":
        return cls(
            latency=d["latency"],
            sec_per_byte=d["sec_per_byte"],
            sl=d.get("sl", 1.0),
            rse=d.get("rse", 0.0),
            rse_bid=d.get("rse_bid", 0.0),
            p_value=d.get("p_value", 0.0),
            p_value_bid=d.get("p_value_bid", 0.0),
            samples=int(d.get("samples", 0)),
        )


@dataclass(frozen=True)
class LinkModel:
    """The six system-wide transfer parameters of Section IV-A:
    (t_l, t_b, sl) for h2d and d2h."""

    h2d: TransferFit
    d2h: TransferFit

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        return {"h2d": self.h2d.to_dict(), "d2h": self.d2h.to_dict()}

    @classmethod
    def from_dict(cls, d: Dict[str, Dict[str, float]]) -> "LinkModel":
        return cls(
            h2d=TransferFit.from_dict(d["h2d"]),
            d2h=TransferFit.from_dict(d["d2h"]),
        )
