"""Benchmark harness for speccert; see bench/README.md."""
