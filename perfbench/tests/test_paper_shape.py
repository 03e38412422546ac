"""The committed reference table has the paper's shape, and regenerating it
reproduces it byte for byte."""

import pytest

from perfbench import oracle

TABLE = oracle.load_table()
CELLS = TABLE["cells"]


def cell(analog, flavor, label=None):
    return CELLS[oracle.cell_key(analog, flavor, label)]


def test_table_covers_the_paper_matrix():
    assert sorted(CELLS) == sorted(oracle.cell_key(*c) for c in oracle.paper_cells())
    assert len(CELLS) == 90


def test_plain_2objh_times_out_on_hsqldb_and_jython_only():
    timed_out = {a for a in oracle.ANALOGS if cell(a, "2objH")["timed_out"]}
    assert timed_out == {"hsqldb", "jython"}


@pytest.mark.parametrize("flavor", oracle.INTRO_FLAVORS)
def test_heuristic_a_excludes_more_call_sites_than_b(flavor):
    for analog in oracle.ANALOGS:
        a = cell(analog, flavor, "A")["refinement"]
        b = cell(analog, flavor, "B")["refinement"]
        assert a[1] > b[1], analog


@pytest.mark.parametrize("flavor", oracle.INTRO_FLAVORS)
def test_introb_at_least_as_precise_as_introa_at_least_as_insens(flavor):
    compared = 0
    for analog in oracle.ANALOGS:
        a, b = cell(analog, flavor, "A"), cell(analog, flavor, "B")
        if a["timed_out"] or b["timed_out"]:
            continue
        insens = cell(analog, "insens")["precision"]
        for client in range(3):  # poly calls, reachable methods, casts
            assert b["precision"][client] <= a["precision"][client] <= insens[client], (
                analog, client)
        compared += 1
    assert compared >= 8


def test_query_pool_covers_the_analogs_whose_2objh_finishes():
    finishing = {a for a in oracle.ANALOGS if not cell(a, "2objH")["timed_out"]}
    assert set(TABLE["queries"]) == finishing
    for pool in TABLE["queries"].values():
        assert len(pool) == oracle.QUERY_POOL_SIZE
        assert all(pool.values())  # every pool variable points somewhere


def test_regenerated_table_is_byte_identical():
    committed = oracle.EXPECTED_PATH.read_text(encoding="utf-8")
    assert oracle.dump_table(oracle.generate_table()) == committed
