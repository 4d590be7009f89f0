"""TwisterAzure: iterative MapReduce on cloud primitives (paper §8).

The paper's stated future work: "we are working on developing a
fully-fledged MapReduce framework with iterative-MapReduce support for
the Windows Azure Cloud infrastructure using Azure infrastructure
services as building blocks" (TwisterAzure, their reference [12]).

This package implements that extension:

* :mod:`repro.twister.iterative` — the Twister programming model:
  long-lived workers **cache static data** across iterations, so each
  iteration only broadcasts the small dynamic state (e.g. centroids);
* :mod:`repro.twister.kmeans` — K-means clustering, the canonical
  iterative-MapReduce application, run on
  :class:`~repro.twister.iterative.IterativeMapReduce`;
* :mod:`repro.twister.simulator` — per-iteration cost on the simulated
  Azure substrate, contrasting the naive Classic-Cloud-per-iteration
  approach (re-download static data every iteration) with Twister-style
  caching.
"""

from repro.twister.iterative import IterativeMapReduce, IterationResult
from repro.twister.kmeans import kmeans_mapreduce
from repro.twister.simulator import TwisterAzureSimulator, TwisterSimConfig

__all__ = [
    "IterationResult",
    "IterativeMapReduce",
    "TwisterAzureSimulator",
    "TwisterSimConfig",
    "kmeans_mapreduce",
]
