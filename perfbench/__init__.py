"""The repository benchmark: three workloads run from outside the program.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload (``fig10``, ``geomsweep`` or ``service``) through the
public experiment and service APIs and prints one JSON result line.
``BENCHMARK.json`` lists ``fig10`` and ``service``; ``geomsweep`` is run
by hand (see ``workloads.BENCHMARKED``).  See
``run.py`` for the measurement protocol, ``workloads.py`` for what each
workload runs, ``tracing.py`` for the per-layer spans of the traced run,
``check.py`` for the output check and ``layers.json`` for which
end-to-end metric each per-layer metric should move.
"""
