"""The benchmark's checks can fail, and its op scripts are seeded."""

import json

import pytest

from perfbench import common, oracle, run
from perfbench.workloads import edit_query, registry, service_mix

TABLE = oracle.load_table()


@pytest.mark.parametrize("name", sorted(registry()))
def test_same_seed_same_script_other_seed_other_script(name):
    make = registry()[name].make_script
    first = json.dumps(make(7, TABLE), sort_keys=True)
    assert json.dumps(make(7, TABLE), sort_keys=True) == first
    assert json.dumps(make(8, TABLE), sort_keys=True) != first


def work_of(name, script):
    """What a script asks of the program, with the order taken out."""
    if name == "paper-matrix":
        return sorted(map(json.dumps, script["cells"]))
    if name == "edit-query":
        return sorted(json.dumps(step, sort_keys=True) for step in script["steps"])
    issued = [op["body"] for op in script["ops"] if op["kind"] == "cold"]
    bodies = []
    for op in script["ops"]:
        body = issued[op["replay"]] if op["kind"] == "hit" else op["body"]
        body = {k: v for k, v in body.items() if k != "max_seconds"}
        bodies.append(json.dumps([op["kind"], body], sort_keys=True))
    return sorted(bodies)


@pytest.mark.parametrize("name", sorted(registry()))
def test_seeds_change_the_order_not_the_work(name):
    make = registry()[name].make_script
    assert work_of(name, make(7, TABLE)) == work_of(name, make(8, TABLE))


def test_edit_query_keeps_each_sessions_edit_order():
    def per_session(script):
        return [[step["edit"] for step in script["steps"] if step["session"] == s]
                for s in range(len(script["analogs"]))]

    first, second = edit_query.make_script(7, TABLE), edit_query.make_script(8, TABLE)
    assert [step["session"] for step in first["steps"]] != [
        step["session"] for step in second["steps"]]
    assert per_session(first) == per_session(second)


def run_main(monkeypatch, capsys, tmp_path, workload, table, shorten):
    """``run.py --workload WORKLOAD --seed 3 --seconds 1 --trace 0`` in this
    process, against ``table`` and on a shortened script."""
    path = tmp_path / "expected.json"
    path.write_text(oracle.dump_table(table))
    monkeypatch.setattr(oracle, "EXPECTED_PATH", path)
    module = registry()[workload]
    make = module.make_script
    monkeypatch.setattr(module, "make_script",
                        lambda seed, table: shorten(make(seed, table)))
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", "0"])
    stdout = capsys.readouterr().out
    return code, stdout, json.loads(stdout.strip().splitlines()[-1])


def failed_ratio(stdout):
    line = next(l for l in stdout.splitlines() if l.startswith("detail failed_ratio"))
    return float(line.split()[2])


def first_cells(script):
    script["cells"] = script["cells"][:4]
    return script


def up_to_first_query(script):
    """The ops up to and including the first query batch."""
    ops = script["ops"]
    script["ops"] = ops[:next(i for i, op in enumerate(ops)
                              if op["kind"] == "query") + 1]
    return script


def test_corrupt_expected_cell_fails_the_run(monkeypatch, capsys, tmp_path):
    table = json.loads(json.dumps(TABLE))
    analog, flavor, label = first_cells(
        registry()["paper-matrix"].make_script(3, TABLE))["cells"][0]
    entry = table["cells"][oracle.cell_key(analog, flavor, label)]
    entry["timed_out"] = not entry["timed_out"]
    code, stdout, result = run_main(monkeypatch, capsys, tmp_path,
                                    "paper-matrix", table, first_cells)
    assert code != 0
    assert result["correct"] is False and result["failed"] == 1
    assert failed_ratio(stdout) > 0


def test_corrupt_query_answer_fails_the_run(monkeypatch, capsys, tmp_path):
    table = json.loads(json.dumps(TABLE))
    script = up_to_first_query(service_mix.make_script(3, TABLE))
    query = script["ops"][-1]["body"]
    table["queries"][query["benchmark"]][query["vars"][0]].append("no-such-heap")
    code, stdout, result = run_main(monkeypatch, capsys, tmp_path,
                                    "service-mix", table, up_to_first_query)
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1
    assert failed_ratio(stdout) > 0


def test_edit_query_checks_answers_against_the_reference(monkeypatch):
    script = edit_query.make_script(3, TABLE)
    script["steps"] = script["steps"][:3]
    script["steps"][0]["checked"] = [0]
    real = oracle.reference_relations

    def wrong(program, flavor):
        relations = dict(real(program, flavor))
        relations["VARPOINTSTO"] = frozenset()  # every answer now looks wrong
        return relations

    monkeypatch.setattr(oracle, "reference_relations", wrong)
    result = edit_query.run(script, TABLE, traced=False)
    assert any("pts(" in message for _op, message in result.failures)


def test_tail_leaves_ten_samples_beyond():
    samples = list(range(1, 91))
    value, pct = common.tail(samples)
    assert value == 80 and sum(s > value for s in samples) == 10 and pct == 88
    assert common.tail([3.0, 1.0, 2.0]) == (3.0, 100)


def test_speed_scales_each_op_by_the_readings_near_it():
    from perfbench.workloads import Pass

    ref = common.REFERENCE_KERNEL_S
    result = Pass(setup=[2.0])
    result.speed.readings = [(0.0, 0.003), (0.5, 0.003), (10.0, 0.001),
                             (10.5, 0.001)]
    result.ops = [("cell", 0.1, 0.4), ("cell", 10.1, 10.4)]
    slow, fast = (seconds for _category, seconds in result.adjusted_ops())
    assert slow == pytest.approx(0.3 * ref / 0.003)
    assert fast == pytest.approx(0.3 * ref / 0.001)
    # Nothing within the window: the two nearest readings decide.
    assert result.speed.factor(5.0, 5.1) == pytest.approx(ref / 0.002)
    # Set-ups use the run's median reading.
    assert result.adjusted_setup() == [pytest.approx(2.0 * ref / 0.002)]
