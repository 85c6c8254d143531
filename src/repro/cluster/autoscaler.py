"""Model-guided autoscaling: predicted demand, not reactive queues.

The scaler never looks at queue lengths.  Its two signals are

* an EWMA of the **arrival rate** (updated from router-observed
  interarrival gaps), and
* an EWMA of the **predicted service time** of admitted work (the
  CoCoPeLia models' admission-time prediction, fed back on every
  completion),

whose product is the offered load in busy-seconds per second — the
number of workers the fleet must keep busy just to hold steady.  The
desired fleet size is that demand divided by per-node capacity at the
target utilization.  Predicted backlog per node (the same signal the
router scores with) acts as the pressure-relief override: when the
models say the fleet is already ``UP_BACKLOG`` seconds behind per
node, scale up even if the rate EWMA hasn't caught up yet.

Scale-up provisions a cold node (warm-up delay, empty queues);
scale-down gracefully drains the highest-index active node —
arrival-preserving requeue, in-flight work finishes where it started.
A cooldown between actions stops the controller from flapping inside
one burst.  Every decision appends a timestamped event with the full
reasoning snapshot, so reports can show *why* the fleet moved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from ..serve.request import ServeError


#: Fraction of per-node GPU-seconds the controller plans to use.
TARGET_UTILIZATION = 0.7
#: Per-node predicted backlog (seconds) forcing a scale-up ...
UP_BACKLOG = 0.5
#: ... and below which scale-down is allowed.
DOWN_BACKLOG = 0.05
#: EWMA smoothing for arrival rate and predicted service time.
RATE_ALPHA = 0.05
SERVICE_ALPHA = 0.05
#: Simulated seconds between scaling actions.
COOLDOWN = 1.0
#: Simulated warm-up before a provisioned node takes traffic.
WARMUP = 0.25


@dataclass(frozen=True)
class AutoscalerConfig:
    """The fleet-size bounds; the control law's thresholds are the
    module constants above."""

    min_nodes: int = 2
    max_nodes: int = 8

    def __post_init__(self) -> None:
        if self.min_nodes < 1:
            raise ServeError(f"min_nodes must be >= 1: {self.min_nodes}")
        if self.max_nodes < self.min_nodes:
            raise ServeError(
                f"max_nodes ({self.max_nodes}) below min_nodes "
                f"({self.min_nodes})")


class Autoscaler:
    """EWMA demand model + hysteresis → "up" / "down" / None per tick."""

    def __init__(self, config: AutoscalerConfig, gpus_per_node: int) -> None:
        self.config = config
        self.gpus_per_node = gpus_per_node
        self.ewma_rate = 0.0
        self.ewma_service: Optional[float] = None
        self._last_arrival: Optional[float] = None
        self._last_action_t = -math.inf
        self.events: List[dict] = []

    # -- signal feeds (called by the coordinator) -----------------------

    def observe_arrival(self, t: float) -> None:
        """Fold one routed arrival into the rate EWMA."""
        last = self._last_arrival
        self._last_arrival = t
        if last is None or t <= last:
            return
        sample = 1.0 / (t - last)
        self.ewma_rate += RATE_ALPHA * (sample - self.ewma_rate)

    def observe_service(self, predicted_seconds: float) -> None:
        """Fold one admission-time service prediction into the EWMA."""
        if predicted_seconds <= 0:
            return
        if self.ewma_service is None:
            self.ewma_service = predicted_seconds
            return
        self.ewma_service += SERVICE_ALPHA * (predicted_seconds
                                              - self.ewma_service)

    # -- the decision ----------------------------------------------------

    def desired_nodes(self) -> int:
        """Fleet size implied by the demand model (no hysteresis)."""
        if self.ewma_service is None or self.ewma_rate <= 0:
            return self.config.min_nodes
        demand = self.ewma_rate * self.ewma_service   # busy-sec per sec
        capacity = self.gpus_per_node * TARGET_UTILIZATION
        return max(self.config.min_nodes,
                   min(self.config.max_nodes,
                       int(math.ceil(demand / capacity))))

    def decide(self, now: float, active: int,
               fleet_backlog: float) -> Optional[str]:
        """One tick: "up", "down", or None.  Appends a reasoned event."""
        cfg = self.config
        if now - self._last_action_t < COOLDOWN:
            return None
        backlog_per_node = fleet_backlog / active if active else 0.0
        desired = self.desired_nodes()
        action: Optional[str] = None
        if active < cfg.max_nodes and (desired > active
                                       or backlog_per_node > UP_BACKLOG):
            action = "up"
        elif (active > cfg.min_nodes and desired < active
              and backlog_per_node < DOWN_BACKLOG):
            action = "down"
        if action is not None:
            self._last_action_t = now
            self.events.append({
                "t": now,
                "action": action,
                "reason": {
                    "ewma_rate": self.ewma_rate,
                    "ewma_service": self.ewma_service,
                    "fleet_backlog": fleet_backlog,
                    "backlog_per_node": backlog_per_node,
                    "desired": desired,
                    "active": active,
                },
            })
        return action
