"""Tests for the DaCapo-analog suite: availability, determinism, and the
paper's scalability matrix on the extreme benchmarks.

The full matrix (every benchmark x every flavor x every variant) lives in
the benchmark harness; here we verify the distinguishing cases cheaply.
"""

import pytest

from repro import BudgetExceeded, analyze, encode_program
from repro.benchgen import (
    DACAPO_SPECS,
    FIGURE1_BENCHMARKS,
    HARD_BENCHMARKS,
    benchmark_names,
    build_benchmark,
)
from repro.harness import EXPERIMENT_BUDGET


class TestSuiteDefinition:
    def test_all_figure_benchmarks_defined(self):
        for name in FIGURE1_BENCHMARKS:
            assert name in DACAPO_SPECS
        for name in HARD_BENCHMARKS:
            assert name in DACAPO_SPECS

    def test_benchmark_names_sorted(self):
        names = benchmark_names()
        assert names == sorted(names)

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            build_benchmark("dacapo-ghost")

    def test_programs_build_and_validate(self):
        # antlr is the smallest: build it fully
        p = build_benchmark("antlr")
        assert p.frozen
        assert p.count_methods() > 100

    @pytest.mark.parametrize("name", benchmark_names())
    def test_generation_deterministic(self, name):
        # The service memoizes a benchmark's facts digest by its name.
        a = encode_program(build_benchmark(name)).digest()
        b = encode_program(build_benchmark(name)).digest()
        assert a == b


class TestScalabilityMatrix:
    """The distinguishing rows of the paper's timeout matrix."""

    def test_easy_benchmark_scales_everywhere(self):
        p = build_benchmark("antlr")
        facts = encode_program(p)
        for analysis in ("insens", "2objH", "2typeH", "2callH"):
            analyze(p, analysis, facts=facts, max_tuples=EXPERIMENT_BUDGET)

    def test_hsqldb_objH_explodes_typeH_survives(self):
        """The paper's hsqldb row: 2objH times out, 2typeH does not —
        type-sensitivity coarsens the reader contexts to one class."""
        p = build_benchmark("hsqldb")
        facts = encode_program(p)
        analyze(p, "insens", facts=facts, max_tuples=EXPERIMENT_BUDGET)
        analyze(p, "2typeH", facts=facts, max_tuples=EXPERIMENT_BUDGET)
        with pytest.raises(BudgetExceeded):
            analyze(p, "2objH", facts=facts, max_tuples=EXPERIMENT_BUDGET)

    def test_jython_defeats_every_deep_flavor(self):
        p = build_benchmark("jython")
        facts = encode_program(p)
        analyze(p, "insens", facts=facts, max_tuples=EXPERIMENT_BUDGET)
        for analysis in ("2objH", "2typeH", "2callH"):
            with pytest.raises(BudgetExceeded):
                analyze(p, analysis, facts=facts, max_tuples=EXPERIMENT_BUDGET)

    def test_chains_break_callH_only(self):
        """bloat: 2callH times out on the static chains; 2objH is immune."""
        p = build_benchmark("bloat")
        facts = encode_program(p)
        analyze(p, "2objH", facts=facts, max_tuples=EXPERIMENT_BUDGET)
        with pytest.raises(BudgetExceeded):
            analyze(p, "2callH", facts=facts, max_tuples=EXPERIMENT_BUDGET)
