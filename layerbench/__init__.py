"""Layered benchmark for solaris_ray: end-to-end and per-layer metrics.

Run ``python3 layerbench/run.py --help`` from any directory; see
``layerbench/README.md`` for the workloads, metrics and predictions.
"""
