"""``python -m repro.exp`` defaults: a run without ``--out`` must never
resolve to a committed ``BENCH_<n>.json`` record in the cwd."""

from __future__ import annotations

from fnmatch import fnmatch

import pytest

from repro.exp.__main__ import MODES, parse_args


@pytest.mark.parametrize("flags", [[]] + [[f"--{mode}"] for mode in MODES],
                         ids=lambda flags: flags[0] if flags else "figure")
def test_default_output_is_never_a_committed_record(flags):
    args = parse_args(flags)
    assert not fnmatch(args.out, "BENCH_*.json")
    assert not args.bench_name.startswith("BENCH_")


def test_explicit_names_win():
    args = parse_args(["--failover", "--out", "x.json", "--bench-name", "X"])
    assert (args.out, args.bench_name) == ("x.json", "X")
