"""Per-(machine, percentile) residual-quantile bank: tail prediction.

The paper validates the *mean* prediction error (Figs. 4/5 e%), and the
serving stack built on top of it — dispatcher scoring, shed/downgrade
admission, cluster routing, autoscaling — consumed the mean ``T_pred``
unchanged.  At production traffic the tail is what breaks SLOs: a
request whose *p99* completion time blows its deadline should be shed
even when the mean prediction squeaks under.

:class:`PercentileBank` treats model error as a distribution-shaped
signal rather than a scalar (the ``MultiPredictor`` per-(hw, percentile)
pattern).  It accumulates **residual ratios** ``observed / predicted``
per problem bucket — keyed ``(routine, dtype prefix, flops decade)`` so
a tiny daxpy and a giant dgemm never share a distribution — and fits
the configured percentiles of each bucket with the same
``np.percentile`` math every report in this repo uses.  The fitted
quantile at percentile ``p`` answers: "by what factor does the observed
latency exceed the prediction at the p-th percentile?"

Two fit paths share one bank:

* **deployment fit** (:mod:`repro.deploy.tailfit`): seeded measured
  runs at deployment time seed the quantiles, persisted alongside the
  model database (``MachineModels.tail``, an optional key so existing
  databases stay byte-identical);
* **online refinement**: a serving run feeds every completed request's
  end-to-end ``(predicted latency, observed latency)`` pair back into
  the bank on a deterministic count-based schedule — every
  ``refit_every`` observations per bucket the quantiles are recomputed
  from a bounded window.  No wall clock, no randomness: the same seed
  produces the same observation sequence, so same-seed documents stay
  byte-identical.

Determinism rules (pinned by ``tests/core/test_tailbank.py``):

* refits fire only on the count schedule (never on time or size
  heuristics that could race);
* buckets iterate in sorted order wherever aggregate output
  (``snapshot``/``to_dict``/``refit_all``) is produced;
* :meth:`multiplier` is read-only and clamps at 1.0 — tail-aware
  admission may only be *more* conservative than the mean path, never
  admit work the mean path would shed.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ReproError
from .params import CoCoProblem, prefix_for

#: Percentiles every bank fits by default (p50/p95/p99) — the same
#: trio the serve/cluster latency summaries report.
TAIL_PERCENTILES = (50.0, 95.0, 99.0)

#: Catch-all bucket fed by every observation; the fallback when a
#: problem's own bucket has not accumulated a fit yet.
GLOBAL_BUCKET: Tuple[str, str, int] = ("*", "*", -1)

BucketKey = Tuple[str, str, int]


def tail_bucket(problem: CoCoProblem) -> BucketKey:
    """The residual bucket a problem's observations land in.

    ``(routine, dtype prefix, flops decade)``: coarse enough that a
    serving run populates its buckets quickly, fine enough that the
    error distribution of a batched tiny gemm never contaminates the
    tail of a paper-scale one.
    """
    flops = problem.flops()
    decade = int(math.floor(math.log10(flops))) if flops > 0 else 0
    return (problem.routine.name, prefix_for(problem.dtype), decade)


class PercentileBank:
    """Residual-ratio quantiles per problem bucket, refit online.

    All mutation happens through :meth:`observe` (count-scheduled
    refits), :meth:`refit_all` (deployment fit) and
    :meth:`ensure_percentile` (admission setup); given the same call
    sequence two banks are state-identical, which is what keeps
    same-seed serving documents byte-identical.
    """

    def __init__(
        self,
        percentiles: Sequence[float] = TAIL_PERCENTILES,
        window: int = 512,
        refit_every: int = 32,
    ) -> None:
        ps: List[float] = []
        for p in percentiles:
            f = float(p)
            if math.isnan(f) or not 0.0 < f <= 100.0:
                raise ReproError(
                    f"tail percentile outside (0, 100]: {p}")
            if f not in ps:
                ps.append(f)
        if not ps:
            raise ReproError("a PercentileBank needs >= 1 percentile")
        if not isinstance(refit_every, int) or refit_every < 1:
            raise ReproError(
                f"refit_every must be a positive int: {refit_every}")
        if not isinstance(window, int) or window < refit_every:
            raise ReproError(
                f"window ({window}) must be an int >= refit_every "
                f"({refit_every})")
        self.percentiles: Tuple[float, ...] = tuple(sorted(ps))
        self.window = window
        self.refit_every = refit_every
        #: Bounded recent-ratio buffers per bucket (online refinement).
        self._samples: Dict[BucketKey, List[float]] = {}
        #: Lifetime observation count per bucket (drives the schedule;
        #: deliberately NOT window-capped).
        self._counts: Dict[BucketKey, int] = {}
        #: Fitted percentile -> ratio quantile per bucket.
        self._fits: Dict[BucketKey, Dict[float, float]] = {}
        self.observations = 0
        self.refits = 0

    # -- observation & fitting -----------------------------------------

    def observe(self, problem: CoCoProblem, predicted: float,
                observed: float) -> None:
        """Fold one (predicted, observed) latency pair into the bank.

        Non-positive or non-finite pairs are ignored — a shed request
        has no observed latency, and a zero prediction has no ratio.
        """
        if not (predicted > 0 and observed > 0):
            return
        if not (math.isfinite(predicted) and math.isfinite(observed)):
            return
        ratio = observed / predicted
        for bucket in (tail_bucket(problem), GLOBAL_BUCKET):
            buf = self._samples.setdefault(bucket, [])
            buf.append(ratio)
            if len(buf) > self.window:
                del buf[: len(buf) - self.window]
            count = self._counts.get(bucket, 0) + 1
            self._counts[bucket] = count
            if count % self.refit_every == 0:
                self._refit(bucket)
        self.observations += 1

    def _refit(self, bucket: BucketKey) -> None:
        buf = self._samples.get(bucket)
        if not buf:
            return
        values = np.percentile(np.asarray(buf, dtype=np.float64),
                               list(self.percentiles))
        self._fits[bucket] = {
            p: float(v) for p, v in zip(self.percentiles, values)
        }
        self.refits += 1

    def refit_all(self) -> None:
        """Force-fit every bucket with samples (deployment-fit path)."""
        for bucket in sorted(self._samples):
            self._refit(bucket)

    def ensure_percentile(self, percentile: float) -> None:
        """Make sure ``percentile`` is fitted (admission setup).

        Adding a new percentile refits every sampled bucket so
        :meth:`multiplier` reads it immediately; buckets carrying only
        deserialized fits (no samples) pick it up at their next
        scheduled refit.
        """
        p = float(percentile)
        if math.isnan(p) or not 0.0 < p <= 100.0:
            raise ReproError(f"tail percentile outside (0, 100]: {percentile}")
        if p in self.percentiles:
            return
        self.percentiles = tuple(sorted(self.percentiles + (p,)))
        self.refit_all()

    # -- lookups --------------------------------------------------------

    def _fit_for(self, problem: CoCoProblem) -> Optional[Dict[float, float]]:
        fit = self._fits.get(tail_bucket(problem))
        if fit is None:
            fit = self._fits.get(GLOBAL_BUCKET)
        return fit

    def quantile(self, problem: CoCoProblem,
                 percentile: float) -> Optional[float]:
        """The raw fitted residual-ratio quantile (no clamp), or None
        when neither the problem's bucket nor the global bucket has a
        fit for ``percentile``."""
        fit = self._fit_for(problem)
        if fit is None:
            return None
        return fit.get(float(percentile))

    def multiplier(self, problem: CoCoProblem, percentile: float) -> float:
        """Admission inflation factor at ``percentile`` (always >= 1).

        The clamp keeps tail-aware admission one-sided: a bucket whose
        model *over*-predicts (ratio quantile < 1) falls back to the
        mean prediction instead of admitting work the mean path would
        shed.  Unknown buckets/percentiles return 1.0 — the bank
        degrades to exactly the mean-based behavior until it has data.
        """
        value = self.quantile(problem, percentile)
        if value is None:
            return 1.0
        return value if value > 1.0 else 1.0

    # -- reporting & persistence ---------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready state for the ``prediction.tail`` report block."""
        buckets = []
        for bucket in sorted(self._fits):
            routine, dtype, decade = bucket
            buckets.append({
                "routine": routine,
                "dtype": dtype,
                "flops_decade": decade,
                "n": self._counts.get(bucket, 0),
                "quantiles": {
                    f"p{p:g}": v
                    for p, v in sorted(self._fits[bucket].items())
                },
            })
        return {
            "percentiles": [float(p) for p in self.percentiles],
            "observations": self.observations,
            "refits": self.refits,
            "buckets": buckets,
        }

    def to_dict(self) -> Dict[str, object]:
        """Persistable state (fits only — sample windows are not kept,
        a reloaded bank refines onward from the fitted quantiles)."""
        return {
            "percentiles": [float(p) for p in self.percentiles],
            "window": self.window,
            "refit_every": self.refit_every,
            "observations": self.observations,
            "refits": self.refits,
            "fits": [
                {
                    "bucket": list(bucket),
                    "n": self._counts.get(bucket, 0),
                    "quantiles": {
                        f"{p:g}": v
                        for p, v in sorted(self._fits[bucket].items())
                    },
                }
                for bucket in sorted(self._fits)
            ],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "PercentileBank":
        bank = cls(
            percentiles=[float(p) for p in d["percentiles"]],
            window=int(d.get("window", 512)),
            refit_every=int(d.get("refit_every", 32)),
        )
        bank.observations = int(d.get("observations", 0))
        bank.refits = int(d.get("refits", 0))
        for entry in d.get("fits", []):
            routine, dtype, decade = entry["bucket"]
            bucket = (str(routine), str(dtype), int(decade))
            bank._counts[bucket] = int(entry.get("n", 0))
            bank._fits[bucket] = {
                float(p): float(v)
                for p, v in entry["quantiles"].items()
            }
        return bank
