"""The repository benchmark: paper loopback, socket RPC mix and data plane.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``; ``perfbench/README.md`` explains the
workloads, the metrics and the seed discipline.

The pure modules (:mod:`perfbench.inputs`, :mod:`perfbench.checks`,
:mod:`perfbench.spans`) import nothing from the program, so their tests run
without it; :mod:`perfbench.tracer` and :mod:`perfbench.workloads` drive the
program through its public API.
"""
