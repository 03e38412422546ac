"""The service workload's server child binds a free port and never outlives
the run: not on success, not on an exception mid-run, not on SIGINT."""

import os
import signal
import subprocess
import sys
import time

import pytest

from perfbench import common, oracle, run
from perfbench.workloads import service_mix

TABLE = oracle.load_table()


def serve_processes():
    """pid -> (ppid, pgid) of every live ``repro.cli serve`` process."""
    found = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                argv = fh.read().split(b"\0")
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if b"repro.cli" in argv and b"serve" in argv and fields[0] != "Z":
            found[int(entry)] = (int(fields[1]), int(fields[2]))
    return found


def group_alive(pgid):
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def wait_gone(pgid, timeout=10.0):
    deadline = time.monotonic() + timeout
    while group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)
    return not group_alive(pgid)


def test_server_binds_a_free_port_per_spawn():
    with service_mix.Server() as first, service_mix.Server() as second:
        ports = {first.url.rsplit(":", 1)[1], second.url.rsplit(":", 1)[1]}
        assert len(ports) == 2 and "8080" not in ports
        pgids = [first.proc.pid, second.proc.pid]
    assert all(wait_gone(pgid) for pgid in pgids)


def test_server_reaped_when_the_run_raises(monkeypatch):
    started = []
    real_init = service_mix.Server.__init__

    def recording_init(self):
        real_init(self)
        started.append(self.proc.pid)

    calls = {"n": 0}
    real_run_op = service_mix._Client.run_op

    def failing_run_op(self, op):
        calls["n"] += 1
        if calls["n"] == 3:
            raise RuntimeError("injected failure mid-run")
        real_run_op(self, op)

    monkeypatch.setattr(service_mix.Server, "__init__", recording_init)
    monkeypatch.setattr(service_mix._Client, "run_op", failing_run_op)
    script = service_mix.make_script(5, TABLE)
    with pytest.raises(RuntimeError, match="injected"):
        service_mix.run(script, TABLE, traced=False)
    assert len(started) == service_mix.SETUP_REPEATS
    assert all(wait_gone(pgid) for pgid in started)


def test_server_reaped_on_sigint():
    before = set(serve_processes())
    bench = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "service-mix",
         "--seed", "5", "--seconds", "20", "--trace", "0"],
        cwd=str(common.ROOT), stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        mine = {}
        while time.monotonic() < deadline and not mine:
            mine = {pid: info for pid, info in serve_processes().items()
                    if info[0] == bench.pid and pid not in before}
            time.sleep(0.1)
        assert mine, "the benchmark never started its server"
        time.sleep(1.0)  # let the run get going
        bench.send_signal(signal.SIGINT)
        assert bench.wait(timeout=60) != 0
    finally:
        if bench.poll() is None:
            bench.kill()
            bench.wait()
    assert all(wait_gone(pgid) for _ppid, pgid in mine.values())
    deadline = time.monotonic() + 10
    while set(serve_processes()) - before and time.monotonic() < deadline:
        time.sleep(0.1)
    assert set(serve_processes()) - before == set()


def test_no_server_outlives_a_failed_run(monkeypatch, capsys, tmp_path):
    before = set(serve_processes())
    table = oracle.load_table()
    for entry in table["cells"].values():
        entry["tuples"] = -1  # every job's output now mismatches
    path = tmp_path / "expected.json"
    path.write_text(oracle.dump_table(table))
    monkeypatch.setattr(oracle, "EXPECTED_PATH", path)
    make = service_mix.make_script

    def first_ops(seed, table):
        script = make(seed, table)
        script["ops"] = script["ops"][:4]
        return script

    monkeypatch.setattr(service_mix, "make_script", first_ops)
    code = run.main(["--workload", "service-mix", "--seed", "5",
                     "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert '"correct": false' in capsys.readouterr().out
    time.sleep(0.5)
    assert set(serve_processes()) - before == set()
