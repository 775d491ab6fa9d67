"""The repository benchmark: whole ``repro`` commands timed in cold processes.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload (see :mod:`perfbench.workloads`) and prints its metrics;
``perfbench/RECORD.md`` holds the recorded figures and the reasons behind
the workloads.
"""
