"""Tests for the demand-driven points-to comparator (Section 5).

The comparator is the query engine under the ``insens`` flavor.  The
headline property: a demand query returns *exactly* the whole-program
context-insensitive points-to set of the queried variable — checked on
the fixture programs, on exception flow through catch handlers, and
property-based over random programs — while solving only the variable's
backward slice.
"""

import pytest
from hypothesis import given, settings

from repro import ProgramBuilder, analyze, encode_program
from repro.query import QueryEngine
from tests.conftest import (
    build_box_program,
    build_kitchen_sink_program,
    build_tiny_program,
)


def make_engine(program):
    facts = encode_program(program)
    insens = analyze(program, "insens", facts=facts)
    return facts, insens, QueryEngine(program, facts=facts, insens=insens)


def demand(engine, var):
    return engine.query(var, "insens").points_to


@pytest.mark.parametrize(
    "builder",
    [build_tiny_program, build_box_program, build_kitchen_sink_program],
    ids=["tiny", "boxes", "kitchen-sink"],
)
def test_demand_equals_whole_program(builder):
    program = builder()
    facts, insens, engine = make_engine(program)
    for var, expected in insens.var_points_to.items():
        assert demand(engine, var) == frozenset(expected), var
    # and vars with empty points-to stay empty
    for var, meth in facts.varinmeth:
        if meth in insens.reachable_methods and var not in insens.var_points_to:
            assert demand(engine, var) == frozenset(), var


def test_footprint_is_a_slice():
    """Querying one box's content must not pull in unrelated pattern code."""
    from repro.benchgen import BenchmarkSpec, HubSpec, generate

    spec = BenchmarkSpec(
        name="slice",
        util_classes=10,
        util_methods_per_class=6,
        strategy_clusters=(4,),
        box_groups=(4,),
        sink_groups=(),
        hubs=(HubSpec(readers=10, elements=10, chain=4),),
    )
    program = generate(spec)
    _facts, insens, engine = make_engine(program)
    answer = engine.query("BoxDriver0.drive/0/g0", "insens")
    assert answer.points_to == frozenset(
        insens.var_points_to["BoxDriver0.drive/0/g0"]
    )
    assert answer.footprint < 0.2


def test_dispatch_filter_matches_solver():
    """`this` only receives receivers that actually dispatch to the method."""
    b = ProgramBuilder()
    b.klass("A")
    b.klass("B")
    for cls in ("A", "B"):
        with b.method(cls, "me", []) as m:
            m.ret("this")
    with b.method("Main", "main", [], static=True) as m:
        m.alloc("a", "A")
        m.alloc("bb", "B")
        m.move("x", "a")
        m.move("x", "bb")
        m.vcall("x", "me", [], target="r")
    program = b.build(entry="Main.main/0")
    _facts, insens, engine = make_engine(program)
    assert demand(engine, "A.me/0/this") == frozenset({"Main.main/0/new A/0"})
    assert demand(engine, "A.me/0/this") == frozenset(
        insens.var_points_to["A.me/0/this"]
    )


def test_catch_query_over_approximates():
    """A handler in the caller sees the callee's thrown heap: the demand
    answer covers the whole-program one, and is in fact exactly it."""
    b = ProgramBuilder()
    b.klass("Exc")
    with b.method("Lib", "boom", [], static=True) as m:
        m.alloc("e", "Exc")
        m.throw("e")
    with b.method("Main", "main", [], static=True) as m:
        m.scall("Lib", "boom", [])
        m.catch("h", "Exc")
    program = b.build(entry="Main.main/0")
    _facts, insens, engine = make_engine(program)
    answer = demand(engine, "Main.main/0/h")
    whole = frozenset(insens.var_points_to["Main.main/0/h"])
    assert answer >= whole
    assert answer == whole == frozenset({"Lib.boom/0/new Exc/0"})


def test_exception_slop_attributes_the_catch_over_approximation():
    """Exception flow is answered exactly, so a handler that intercepts
    the exception mid-chain leaves nothing for the outer handler: the
    demand answer carries no heap beyond the whole-program one."""
    b = ProgramBuilder()
    b.klass("Exc")
    with b.method("Lib", "boom", [], static=True) as m:
        m.alloc("e", "Exc")
        m.throw("e")
    with b.method("Lib", "mid", [], static=True) as m:
        m.scall("Lib", "boom", [])
        m.catch("g", "Exc")  # intercepts: nothing escapes to Main
    with b.method("Main", "main", [], static=True) as m:
        m.scall("Lib", "mid", [])
        m.catch("h", "Exc")
    program = b.build(entry="Main.main/0")
    _facts, insens, engine = make_engine(program)
    assert demand(engine, "Lib.mid/0/g") == frozenset({"Lib.boom/0/new Exc/0"})
    assert demand(engine, "Main.main/0/h") == frozenset()
    for var in ("Lib.mid/0/g", "Main.main/0/h"):
        whole = frozenset(insens.var_points_to.get(var, ()))
        slop = demand(engine, var) - whole
        assert slop == frozenset(), var
        assert demand(engine, var) == whole, var


# Property-based: reuse the random-program strategy.  Exactness holds on
# every program, including those with catch handlers.
from tests.analysis.test_properties import programs  # noqa: E402


@given(programs())
@settings(max_examples=40, deadline=None)
def test_demand_matches_insensitive_on_random_programs(program):
    _facts, insens, engine = make_engine(program)
    for var, expected in insens.var_points_to.items():
        assert demand(engine, var) == frozenset(expected), var
