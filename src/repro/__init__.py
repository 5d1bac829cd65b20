"""repro — a reproduction of *Rarest First and Choke Algorithms Are
Enough* (Legout, Urvoy-Keller, Michiardi; IMC 2006).

The package implements, from scratch, a complete BitTorrent swarm
simulator (protocol substrate, discrete-event engine, fluid bandwidth
model, tracker) around the paper's two contributions:

* the **rarest first** piece-selection algorithm with its random-first,
  strict-priority and end-game policies (:mod:`repro.core`), and
* the **choke** peer-selection algorithm in leecher state and in the new
  (mainline >= 4.0.0) seed state (:mod:`repro.core.choke`);

plus the paper's measurement methodology: an instrumented local peer
(:mod:`repro.instrumentation`), the 26 Table-I torrent scenarios
(:mod:`repro.workloads`), and the analysis that regenerates every figure
(:mod:`repro.analysis`).

Quickstart::

    from repro.workloads import scenario_by_id, build_experiment
    from repro.analysis import summarize_entropy

    harness = build_experiment(scenario_by_id(7), seed=3)
    trace = harness.run()
    print(summarize_entropy(trace).median_local)
"""

__version__ = "1.0.0"
