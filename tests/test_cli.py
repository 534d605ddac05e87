import csv
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paragas import Schedule, TxSet, cli, make_transaction, render_block
from paragas.cli import main
from paragas.core import echo
from paragas.sampling import SamplerConfig, sample_txset
from paragas.scheduler import InvalidSchedule

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def four_tx_block(tmp_path):
    path = tmp_path / "block.json"
    path.write_text(json.dumps({"transactions": [
        {"id": "tx1", "time": 2,
         "keys": ["k2", "k3", "k4", "k5", "k6", "k7", "k8"]},
        {"id": "tx2", "time": 4, "keys": ["k2", "k3"]},
        {"id": "tx3", "time": 5, "keys": ["k4", "k5", "k6"]},
        {"id": "tx4", "time": 2, "keys": ["k7", "k8"]},
    ]}))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr()


def cli_command(argv):
    """The command and environment that run the CLI in a fresh
    interpreter importing the package from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return [sys.executable, "-m", "paragas.cli", *argv], env


def run_subprocess(argv, **kwargs):
    """The CLI in a fresh interpreter that imports the package from src."""
    command, env = cli_command(argv)
    return subprocess.run(command, capture_output=True, text=True, env=env,
                          **kwargs)


def test_gas_current_totals(four_tx_block, capsys):
    code, out = run(capsys, ["gas", four_tx_block, "--mech", "current"])
    assert code == 0
    doc = json.loads(out.out)
    assert doc["total"] == "13"
    assert doc["per_tx"] == {"tx1": "2", "tx2": "4", "tx3": "5", "tx4": "2"}
    assert doc["config"]["threads"] == 2


def test_a_reused_parser_answers_as_a_fresh_one(four_tx_block, capsys,
                                                 monkeypatch):
    # main builds its parser on its first call and reuses it.  Each command
    # below, run on that one parser after the commands before it, prints
    # and exits exactly as on a parser built for it alone, and the help
    # wraps at the terminal width of its own call.
    builds = []
    build = cli.build_parser

    def counting_build():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    steps = (("80", ["gas", four_tx_block, "--mech", "shapley"]),
             ("80", ["gas", four_tx_block, "--threads", "1"]),
             ("80", ["schedule", four_tx_block, "--format", "text"]),
             ("60", ["--help"]),
             ("100", ["--help"]))
    cli._parser.cache_clear()
    reused = []
    for columns, argv in steps:
        monkeypatch.setenv("COLUMNS", columns)
        reused.append(run(capsys, argv))
    assert len(builds) == 1
    assert [code for code, _ in reused] == [0, 2, 0, 0, 0]
    assert "--threads: must be an integer >= 2" in reused[1][1].err
    for (columns, argv), got in zip(steps, reused):
        cli._parser.cache_clear()
        monkeypatch.setenv("COLUMNS", columns)
        assert run(capsys, argv) == got, argv
    assert len(builds) == 1 + len(steps)
    narrow, wide = (max(map(len, out.out.splitlines()))
                    for _code, out in reused[3:])
    assert narrow <= 60 - 2 < 60 < wide <= 100 - 2


def test_gas_esm_three_threads(four_tx_block, capsys):
    code, out = run(capsys, ["gas", four_tx_block, "--mech", "esm",
                             "--threads", "3"])
    assert code == 0
    doc = json.loads(out.out)
    assert doc["block_value"] == "7"
    assert set(doc["per_tx"].values()) == {"7/4"}


def test_gas_banzhaf_fixture(tmp_path, capsys):
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"transactions": [
        {"id": "tx1", "time": 1, "keys": ["k1"]},
        {"id": "tx2", "time": 1, "keys": ["k1"]},
        {"id": "tx3", "time": 1, "keys": ["k2"]}]}))
    code, out = run(capsys, ["gas", str(path), "--mech", "banzhaf"])
    assert code == 0
    doc = json.loads(out.out)
    assert doc["per_tx"] == {"tx1": "3/4", "tx2": "3/4", "tx3": "1/4"}
    assert doc["total"] == "7/4"
    assert doc["block_value"] == "2"


def test_gas_weights_override(tmp_path, capsys):
    block = tmp_path / "b.json"
    block.write_text(json.dumps({"transactions": [
        {"id": "a", "time": 4, "keys": ["k1"]}]}))
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"k1": "1/2"}))
    code, out = run(capsys, ["gas", str(block), "--mech", "weighted_area",
                             "--weights", str(weights)])
    assert code == 0
    assert json.loads(out.out)["per_tx"]["a"] == "6"


def test_schedule_exact_makespans(four_tx_block, capsys):
    code, out = run(capsys, ["schedule", four_tx_block, "--threads", "3"])
    assert code == 0
    assert json.loads(out.out)["makespan"] == "7"
    code, out = run(capsys, ["schedule", four_tx_block, "--threads", "2"])
    assert json.loads(out.out)["makespan"] == "8"


def test_schedule_text_and_svg(four_tx_block, capsys):
    code, out = run(capsys, ["schedule", four_tx_block, "--threads", "3",
                             "--format", "text"])
    assert code == 0
    assert "makespan = 7" in out.out
    assert "k2" in out.out
    code, out = run(capsys, ["schedule", four_tx_block, "--threads", "3",
                             "--format", "svg"])
    assert code == 0
    assert out.out.startswith("<svg")
    assert "tx3" in out.out


def test_schedule_unbounded_threads(four_tx_block, capsys):
    code, out = run(capsys, ["schedule", four_tx_block,
                             "--threads", "unbounded"])
    assert code == 0
    assert json.loads(out.out)["makespan"] == "7"


def test_instance_cap_env_override(four_tx_block, capsys, monkeypatch):
    monkeypatch.setenv("PARAGAS_INSTANCE_CAP", "2")
    code, out = run(capsys, ["schedule", four_tx_block])
    assert code == 2
    assert "exceeds instance cap" in out.err
    # The cap is at most 20: past that a table of 2^|T| entries costs too
    # much time and memory.
    for cap in ("junk", "21", "1000000000000"):
        monkeypatch.setenv("PARAGAS_INSTANCE_CAP", cap)
        code, out = run(capsys, ["schedule", four_tx_block])
        assert code == 2, cap
        assert one_error_line(out.err), cap
        assert out.out == "", cap


def test_check_single_cell_pass_and_fixture_driven_cell(capsys):
    code, out = run(capsys, ["check", "--mech", "shapley",
                             "--prop", "efficiency", "--budget", "40"])
    assert code == 0
    assert "ok" in out.out
    code, out = run(capsys, ["check", "--mech", "banzhaf",
                             "--prop", "efficiency", "--budget", "40",
                             "--format", "json"])
    assert code == 0
    doc = json.loads(out.out)
    assert doc["ok"]
    assert doc["cells"]["banzhaf/efficiency"]["symbol"] == "x"
    assert doc["cells"]["banzhaf/efficiency"]["witness"] is not None


def test_check_unknown_names_exit_usage(capsys):
    code, out = run(capsys, ["check", "--mech", "nope"])
    assert code == 2
    code, out = run(capsys, ["check", "--prop", "nope"])
    assert code == 2


def test_gas_unknown_mechanism_lists_the_choices(capsys, monkeypatch):
    # The choices come from gcm.MECHANISMS, in its order.
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the usage to it
    root = Path(__file__).resolve().parents[1]
    code, out = run(capsys, ["gas", str(root / "blocks" / "four_tx_block.json"),
                             "--mech", "nope"])
    assert code == 2
    assert out.out == ""
    assert out.err == (
        "usage: paragas gas [-h] [--mech MECH] [--threads N|unbounded]\n"
        "                   [--weights WEIGHTS] [--format {json,text}]\n"
        "                   block\n"
        "paragas gas: error: argument --mech: invalid choice: 'nope' "
        "(choose from 'current', 'weighted_area', 'shapley', 'banzhaf', "
        "'banzhaf_normalized', 'tpm', 'esm', 'xsm', 'constant')\n")


@pytest.mark.parametrize("subcommand", ["gas", "simulate"])
def test_help_fits_a_narrow_terminal(capsys, monkeypatch, subcommand):
    # The --mech choices, written as one {a,b,...} token, would not wrap.
    monkeypatch.setenv("COLUMNS", "60")
    code, out = run(capsys, [subcommand, "--help"])
    assert code == 0
    assert "constant" in out.out
    assert max(map(len, out.out.splitlines())) <= 60


def test_simulate_csv_deterministic(capsys):
    args = ["simulate", "--blocks", "8", "--seed", "4", "--mech", "current"]
    code1, out1 = run(capsys, args)
    code2, out2 = run(capsys, args)
    assert code1 == code2 == 0
    assert out1.out == out2.out
    header = out1.out.splitlines()[0]
    assert header == ("block_index,base_fee,gas_used,gas_limit,"
                      "makespan,included_count")
    assert len(out1.out.strip().splitlines()) == 9


def test_simulate_json_format(capsys):
    code, out = run(capsys, ["simulate", "--blocks", "2", "--format", "json",
                             "--mech", "esm", "--gas-limit", "8",
                             "--target", "4"])
    assert code == 0
    doc = json.loads(out.out)
    assert doc["config"]["mechanism"] == "esm"
    assert len(doc["rows"]) == 2


def test_malformed_block_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"transactions": [], "bogus": 1}')
    code, out = run(capsys, ["gas", str(bad)])
    assert code == 2
    assert "error:" in out.err


def test_duplicate_json_key_in_block_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "dup.json"
    bad.write_text('{"transactions": [{"id": "a", "time": 1, '
                   '"keys": ["k1"], "id": "b"}]}')
    code, out = run(capsys, ["schedule", str(bad)])
    assert code == 2
    assert "duplicate JSON key 'id'" in out.err


def test_invalid_computed_schedule_is_a_typed_error(four_tx_block,
                                                    monkeypatch):
    def overlapping(txs, cfg):
        return Schedule(txs, {tx.tx_id: Fraction(0) for tx in txs})
    monkeypatch.setattr(cli, "optimal_schedule", overlapping)
    with pytest.raises(InvalidSchedule, match="conflict-overlap"):
        main(["schedule", four_tx_block])


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_check_json_is_byte_identical_to_checked_in_output(capsys):
    expected = (Path(__file__).parent / "data" /
                "check_seed0_budget200.json").read_text(encoding="utf-8")
    code, out = run(capsys, ["check", "--format", "json", "--budget", "200",
                             "--seed", "0"])
    assert code == 0
    assert out.out == expected


def test_block_outputs_are_byte_identical_to_checked_in_output(
        capsys, monkeypatch):
    # `schedule` and `gas --mech tpm|shapley|esm|xsm|banzhaf_normalized` on
    # blocks/*.json, `schedule` and `gas --mech tpm|esm|xsm` on
    # tests/data/open_block.json (a block the bounds leave open), and
    # `gas --mech current|weighted_area|banzhaf|constant` on all three, at
    # threads 2, 3 and unbounded; and `simulate` for 60 blocks, as CSV for
    # every mechanism and as JSON for current and shapley, for 200 blocks
    # with the market bench's flags, and for 60 blocks under the rational
    # flags --gas-limit 7/3 --target 5/4 --base-fee 1/3 for current,
    # weighted_area, xsm and shapley.  Keyed by argv, with the block path
    # relative to the repository root.
    root = Path(__file__).resolve().parents[1]
    expected = json.loads((root / "tests" / "data" /
                           "cli_blocks.json").read_text(encoding="utf-8"))
    assert len(expected) == 110
    monkeypatch.chdir(root)
    for argv, want in expected.items():
        code, out = run(capsys, argv.split())
        assert code == 0, argv
        assert out.out == want, argv


def one_error_line(err):
    return len([line for line in err.splitlines() if "error:" in line]) == 1 \
        and "Traceback" not in err


@pytest.mark.parametrize("keys", [[1], [None], [[2]]],
                         ids=["int", "null", "list"])
def test_non_string_key_in_a_block_file_is_usage_error(tmp_path, capsys,
                                                       keys):
    path = tmp_path / "block.json"
    path.write_text(json.dumps({"transactions": [
        {"id": "a", "time": 1, "keys": keys},
        {"id": "b", "time": 1, "keys": ["1"]}]}))
    for argv in (["gas", str(path)], ["schedule", str(path)]):
        code, out = run(capsys, argv)
        assert code == 2, argv
        assert one_error_line(out.err), argv
        assert "keys must be strings" in out.err
        assert out.out == ""


def test_check_budget_below_one_is_usage_error(capsys):
    for budget in ("0", "-5"):
        code, out = run(capsys, ["check", "--mech", "current", "--prop",
                                 "bundling", "--budget", budget])
        assert code == 2, budget
        assert one_error_line(out.err)
        assert out.out == ""


@pytest.mark.parametrize("config", [
    {"time_range": [1]}, {"price_denominator": 0}, {"bids_per_block": "x"},
    {"time_range": [3, 1]}, {"max_keys_per_tx": 9}, {"price_range": 5},
    {"key_pool": 100, "max_keys_per_tx": 65}, {"bids_per_block": 10001},
    [1, 2], {"key_pool": 2**63}])
def test_simulate_bad_workload_config_is_usage_error(tmp_path, capsys,
                                                     config):
    path = tmp_path / "workload.json"
    path.write_text(json.dumps(config))
    code, out = run(capsys, ["simulate", "--blocks", "2",
                             "--workload", str(path)])
    assert code == 2
    assert one_error_line(out.err)


@pytest.mark.parametrize("flags", [
    ("--blocks", "0"), ("--denominator", "0"), ("--gas-limit", "0"),
    ("--target", "-1"), ("--base-fee", "0"), ("--gas-limit", "x")])
def test_simulate_bad_flags_are_usage_errors(capsys, flags):
    code, out = run(capsys, ["simulate", "--blocks", "2", *flags])
    assert code == 2
    assert one_error_line(out.err)


_ONE_TX = [{"id": "t1", "time": 1, "keys": ["k"]}]


@pytest.mark.parametrize("argv, doc, named, value", [
    (["gas"], {"transactions": [{"id": "t1", "time": "abc", "keys": ["k"]}]},
     "transaction 't1': time", "abc"),
    (["gas"], {"transactions": _ONE_TX, "weights": {"k": "x/y"}},
     "weight of 'k'", "x/y"),
    (["gas"], {"transactions": _ONE_TX, "default_weight": "1/0"},
     "default_weight", "1/0"),
    (["simulate", "--gas-limit", "abc"], None, "--gas-limit", "abc"),
    (["simulate", "--target", "abc"], None, "--target", "abc"),
    (["simulate", "--base-fee", "abc"], None, "--base-fee", "abc"),
    (["simulate", "--gas-limit", "9" * 10**5], None, "--gas-limit",
     "9" * 10**5),
], ids=["time", "weight", "default-weight", "gas-limit", "target",
        "base-fee", "gas-limit-digits"])
def test_a_refused_rational_names_where_it_came_from(tmp_path, capsys, argv,
                                                     doc, named, value):
    # A non-positive value in the same field is named already; a value that
    # is no rational at all is named too, with its echo cut to a short line.
    if doc is not None:
        path = tmp_path / "block.json"
        path.write_text(json.dumps(doc))
        argv = [*argv, str(path)]
    code, out = run(capsys, argv)
    assert code == 2
    assert out.err == f"error: {named} is not a rational: {echo(value)}\n"
    assert len(out.err) < 200


def test_weights_value_must_be_an_object(tmp_path, capsys):
    block = tmp_path / "b.json"
    block.write_text(json.dumps({"transactions": [
        {"id": "a", "time": 4, "keys": ["k1"]}]}))
    for weights in (5, [["k1", 2]]):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"weights": weights}))
        code, out = run(capsys, ["gas", str(block), "--mech",
                                 "weighted_area", "--weights", str(path)])
        assert code == 2
        assert one_error_line(out.err)


def test_internal_value_error_is_not_a_usage_error(four_tx_block,
                                                   monkeypatch):
    def broken(txs, cfg):
        raise ValueError("internal fault")
    monkeypatch.setattr(cli, "optimal_schedule", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["schedule", four_tx_block])


def test_unreadable_inputs_are_usage_errors(tmp_path, capsys, four_tx_block):
    # Each used to reach main as a bare ValueError.
    undecodable = tmp_path / "bin.json"
    undecodable.write_bytes(b"\xff\xfe")
    huge = "1" * 5000  # more digits than int() converts
    long_int = tmp_path / "long_int.json"
    long_int.write_text('{"transactions": [{"id": "a", "time": %s, '
                        '"keys": ["k1"]}]}' % huge)
    long_str = tmp_path / "long_str.json"
    long_str.write_text(json.dumps({"transactions": [
        {"id": "a", "time": huge, "keys": ["k1"]}]}))
    long_seed = tmp_path / "long_seed.json"
    long_seed.write_text('{"seed": %s}' % huge)
    for argv in (["gas", str(undecodable)], ["gas", str(long_int)],
                 ["schedule", str(long_str)],
                 ["gas", four_tx_block, "--weights", str(undecodable)],
                 ["gas", four_tx_block, "--weights", str(long_seed)],
                 ["simulate", "--workload", str(undecodable)],
                 ["simulate", "--workload", str(long_seed)],
                 ["simulate", "--gas-limit", huge]):
        code, out = run(capsys, argv)
        assert code == 2, argv
        assert one_error_line(out.err)


@pytest.mark.parametrize("reader", ["block", "weights", "workload"])
def test_deeply_nested_json_is_a_usage_error(tmp_path, capsys, four_tx_block,
                                             reader):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    argv = {"block": ["gas", str(deep)],
            "weights": ["gas", four_tx_block, "--weights", str(deep)],
            "workload": ["simulate", "--workload", str(deep)]}[reader]
    code, out = run(capsys, argv)
    assert code == 2
    assert one_error_line(out.err)


def test_long_simulation_prints_its_base_fees(capsys):
    # The unrounded base fee outgrew int-to-str conversion at this length.
    code, out = run(capsys, ["simulate", "--blocks", "3500", "--seed", "7"])
    assert code == 0
    rows = out.out.splitlines()
    assert len(rows) == 3501
    assert all(len(row.split(",")[1]) <= 21 for row in rows[1:])


class _Sink:
    """A stdout that keeps nothing of what is written to it."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_simulate_memory_does_not_grow_with_the_blocks(monkeypatch, fmt):
    # Keeping every block of the run grew the peak by about 3 MB (CSV) and
    # 4 MB (JSON) from 300 to 900 blocks; streamed, it stays flat.
    import tracemalloc
    monkeypatch.setattr(sys, "stdout", _Sink())

    def peak(blocks):
        tracemalloc.start()
        try:
            code = main(["simulate", "--blocks", str(blocks),
                         "--format", fmt])
            return code, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (code1, small), (code2, large) = peak(300), peak(900)
    assert code1 == code2 == 0
    assert large - small < 1_000_000


def test_simulate_shapley_memory_does_not_grow_with_the_blocks(monkeypatch):
    # A per-env cache of subset tables kept every priced block alive, and
    # grew the peak by about 2.5 MB from 50 to 150 blocks; kept with each
    # block, a table is freed with it.
    import tracemalloc
    monkeypatch.setattr(sys, "stdout", _Sink())

    def peak(blocks):
        tracemalloc.start()
        try:
            code = main(["simulate", "--mech", "shapley",
                         "--blocks", str(blocks)])
            return code, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (code1, small), (code2, large) = peak(50), peak(150)
    assert code1 == code2 == 0
    assert large - small < 1_000_000


def test_simulate_names_the_block_over_the_instance_cap(tmp_path, capsys):
    # Under `current` the gas needs no schedule, but the makespan column
    # does: the error says which block and why.
    path = tmp_path / "workload.json"
    path.write_text(json.dumps({"bids_per_block": 40, "time_range": [1, 1],
                                "key_pool": 64, "max_keys_per_tx": 1}))
    code, out = run(capsys, ["simulate", "--blocks", "3", "--mech",
                             "current", "--gas-limit", "1000",
                             "--workload", str(path)])
    assert code == 2
    assert one_error_line(out.err)
    assert out.err == ("error: block 0: |T| = 27 exceeds instance cap 12; "
                       "the makespan column needs the exact v(T) of every "
                       "block\n")
    assert out.out == ("block_index,base_fee,gas_used,gas_limit,makespan,"
                       "included_count\n")


def test_simulate_error_after_some_blocks_keeps_the_rows_before_it(
        tmp_path, capsys):
    # Every bid offers 2, below the starting fee of 3, so the first four
    # blocks are empty; once the fee decays under 2, a block of all 20
    # transactions exceeds the instance cap.  The rows already built stay
    # on stdout.
    path = tmp_path / "workload.json"
    path.write_text(json.dumps({"bids_per_block": 20, "key_pool": 64,
                                "max_keys_per_tx": 1,
                                "price_range": [4, 4]}))
    code, out = run(capsys, ["simulate", "--blocks", "30", "--base-fee", "3",
                             "--gas-limit", "1000", "--workload", str(path)])
    assert code == 2
    assert one_error_line(out.err)
    assert "exceeds instance cap" in out.err
    assert out.err.startswith("error: block 4: ")
    rows = out.out.splitlines()
    assert len(rows) == 5
    assert all(row.split(",")[-1] == "0" for row in rows[1:])


@pytest.mark.parametrize("workload, blocks, failed", [
    ({"bids_per_block": 40, "time_range": [1, 1]}, 3, 0),
    ({"bids_per_block": 14, "time_range": [1, 1], "seed": 1}, 2, 1)])
def test_simulate_json_stays_whole_when_a_block_fails(tmp_path, capsys,
                                                      workload, blocks,
                                                      failed):
    # The document closes after the rows of the blocks before the failed
    # one, with the base fee after the last of them: the same document a
    # run of just those blocks prints, but for its block count.
    path = tmp_path / "workload.json"
    path.write_text(json.dumps(workload))
    argv = ["simulate", "--workload", str(path), "--blocks"]
    code, out = run(capsys, [*argv, str(blocks), "--format", "json"])
    assert code == 2
    assert one_error_line(out.err)
    assert out.err.startswith(f"error: block {failed}: ")
    doc = json.loads(out.out)
    assert len(doc["rows"]) == failed
    _code, csv_out = run(capsys, [*argv, str(blocks)])
    assert [{name: str(value) for name, value in row.items()}
            for row in doc["rows"]] == \
        list(csv.DictReader(io.StringIO(csv_out.out)))
    if failed:
        code, whole = run(capsys, [*argv, str(failed), "--format", "json"])
        assert code == 0
        assert {**json.loads(whole.out), "config": doc["config"]} == doc
    else:
        assert doc["final_base_fee"] == "1"


@pytest.mark.parametrize("argv, doc", [
    (["gas"], {"transactions": [{"id": "a", "time": 1,
                                 "keys": "k" * 10**6}]}),
    (["gas"], {"transactions": [{"id": "a", "time": "1" * 10**5,
                                 "keys": ["k"]}]}),
    (["gas"], {"transactions": [], **{f"f{i}": 1 for i in range(10**5)}}),
    (["simulate", "--workload"], {"time_range": list(range(10**5))}),
    (["simulate", "--gas-limit", "9" * 10**5, "--workload"], {}),
    (["simulate", "--blocks", "x" * 10**5, "--workload"], {}),
    (["gas"], {"transactions": [{"id": "a", "time": "-" + "9" * 4000,
                                 "keys": ["k"]}]}),
    (["gas"], {"transactions": [{"id": "a", "time": 1, "keys": ["k"]}],
               "weights": {"k": "-" + "9" * 4000}}),
    (["gas"], {"transactions": [{"id": "a", "time": 1, "keys": ["k"]}],
               "default_weight": "-" + "9" * 4000}),
], ids=["keys", "time", "block-fields", "time-range", "gas-limit", "blocks",
        "negative-time", "negative-weight", "negative-default-weight"])
def test_an_oversized_input_gives_a_short_error_line(tmp_path, capsys, argv,
                                                     doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, [*argv, str(path)])
    assert code == 2
    assert one_error_line(out.err)
    error = next(line for line in out.err.splitlines() if "error:" in line)
    assert len(error.encode()) < 1000
    assert " characters)" in error


@pytest.mark.parametrize("argv", [
    ["check", "--seed"], ["check", "--format"], ["simulate", "--seed"],
    ["simulate", "--mech"], ["simulate", "--format"], ["gas", "--mech"],
    ["gas", "--format"], ["schedule", "--mode"], ["schedule", "--format"],
], ids="".join)
def test_an_oversized_flag_value_gives_a_short_error_line(capsys, argv):
    # argparse's own messages for an int or a choice echo the whole value.
    block = SRC.parent / "blocks" / "four_tx_block.json"
    positional = [str(block)] if argv[0] in ("gas", "schedule") else []
    code, out = run(capsys, [*argv, "x" * 10**5, *positional])
    assert code == 2
    assert one_error_line(out.err)
    error = next(line for line in out.err.splitlines() if "error:" in line)
    assert len(error.encode()) < 1000
    assert " characters)" in error


def test_simulate_into_a_closed_pipe_stops_quietly():
    # As `paragas simulate --blocks 2000 | head -n 1`: the rows written
    # after the reader has gone used to end in a BrokenPipeError traceback.
    command, env = cli_command(["simulate", "--blocks", "2000"])
    proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"block_index,")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


@pytest.mark.parametrize("reader", ["weights", "workload"])
def test_duplicate_json_key_in_weights_or_workload_is_usage_error(
        tmp_path, capsys, four_tx_block, reader):
    # Both readers used to keep the last value: weight 5, seed 2.
    path = tmp_path / "dup.json"
    path.write_text({"weights": '{"k1": 1, "k1": 5}',
                     "workload": '{"seed": 1, "seed": 2}'}[reader])
    argv = {"weights": ["gas", four_tx_block, "--mech", "weighted_area",
                        "--weights", str(path)],
            "workload": ["simulate", "--blocks", "2",
                         "--workload", str(path)]}[reader]
    code, out = run(capsys, argv)
    assert code == 2
    assert one_error_line(out.err)
    assert "duplicate JSON key" in out.err
    assert out.out == ""


def test_greedy_schedule_of_thousands_of_transactions_answers(tmp_path):
    # Validating the schedule compared every pair of transactions and
    # counted the running ones at every start: about 40 s for this block.
    # The timeout guards against that; it is not a speed gate.
    rng = random.Random(1)
    txs = TxSet(make_transaction(
        f"t{i}", rng.randint(1, 12),
        [f"k{rng.randrange(2000)}" for _ in range(rng.randint(1, 2))])
        for i in range(4000))
    path = tmp_path / "wide.json"
    path.write_text(render_block(txs))
    proc = run_subprocess(["schedule", str(path), "--mode", "greedy"],
                          timeout=20)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert len(doc["starts"]) == 4000
    assert doc["validity"]["valid"] is True


def test_simulate_rejects_a_base_fee_below_the_floor(capsys):
    # The first update would lift 1/100000 to the 1/1000 floor whatever
    # the demand, moving the fee away from the target.
    code, out = run(capsys, ["simulate", "--blocks", "3", "--base-fee",
                             "1/100000", "--target", "100", "--gas-limit",
                             "200"])
    assert code == 2
    assert out.out == ""
    assert one_error_line(out.err)
    code, out = run(capsys, ["simulate", "--blocks", "3", "--base-fee",
                             "1/1000", "--target", "100", "--gas-limit",
                             "200"])
    assert code == 0
    assert out.out.splitlines()[1].startswith("0,1/1000,")


@pytest.mark.parametrize("argv", [["schedule"], ["gas", "--mech", "tpm"]])
def test_hard_block_answers_within_a_hang_guard(tmp_path, argv):
    # 12 transactions on 6 keys at 3 threads: the whole-block branch and
    # bound alone runs for many seconds here, while the subset lattice of
    # the block fills in milliseconds.  The timeout guards against a hang;
    # it is not a speed gate.
    txs = sample_txset(random.Random(3),
                       SamplerConfig(key_pool=6, time_range=(1, 12)), 12)
    path = tmp_path / "hard.json"
    path.write_text(render_block(txs))
    proc = run_subprocess([argv[0], str(path), *argv[1:], "--threads", "3"],
                          timeout=8)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    if argv[0] == "schedule":
        assert doc["makespan"] == "53"
        assert doc["validity"]["valid"] is True
    else:
        assert doc["block_value"] == "53"


def test_times_too_large_for_a_float_still_render(tmp_path, capsys):
    # 10^400 parses exactly; only the display approximates it, and a float
    # holds at most about 1.8 * 10^308.
    big = "1" + "0" * 400
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"transactions": [
        {"id": "a", "time": big, "keys": ["k1"]},
        {"id": "b", "time": big, "keys": ["k1"]},
        {"id": "c", "time": 3, "keys": ["k2"]}]}))
    code, out = run(capsys, ["gas", str(path), "--format", "text"])
    assert code == 0, out.err
    assert f"  a: {big} (~1e+400)" in out.out.splitlines()
    code, out = run(capsys, ["schedule", str(path), "--format", "text"])
    assert code == 0, out.err
    assert f"makespan = 2{big[1:]} (2e+400)" in out.out
    code, out = run(capsys, ["schedule", str(path), "--format", "svg"])
    assert code == 0, out.err
    assert out.out.startswith('<svg xmlns="http://www.w3.org/2000/svg" '
                              'width="2510" ')
    assert '<rect x="1290.00" ' in out.out  # b starts half-way


def limit_memory():
    """A 1 GiB address-space limit for a CLI subprocess, so that a run
    that allocates without bound fails with MemoryError instead of
    exhausting the machine."""
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_a_huge_key_pool_costs_no_memory(tmp_path):
    # Listing every key name of the pool would fail under limit_memory.
    path = tmp_path / "workload.json"
    path.write_text(json.dumps({"key_pool": 10**12}))
    proc = run_subprocess(["simulate", "--blocks", "3", "--workload",
                           str(path)], preexec_fn=limit_memory, timeout=60)
    assert proc.returncode == 0, proc.stderr[-500:]
    assert len(proc.stdout.splitlines()) == 4


def test_a_huge_key_count_is_a_usage_error(tmp_path):
    # Drawing 10^12 keys per transaction would fail under limit_memory.
    path = tmp_path / "workload.json"
    path.write_text(json.dumps({"key_pool": 10**12,
                                "max_keys_per_tx": 10**12}))
    proc = run_subprocess(["simulate", "--blocks", "2", "--workload",
                           str(path)], preexec_fn=limit_memory, timeout=60)
    assert proc.returncode == 2, proc.stderr[-500:]
    assert one_error_line(proc.stderr)
    assert "max_keys_per_tx" in proc.stderr
    assert proc.stdout == ""


# Robustness: generated block, --weights and --workload documents with
# adversarial leaves.  Whatever the document, a command ends in an answer
# (exit 0, output that parses) or in exit 2 with one error line.  Blocks
# stay at 6 transactions or fewer with times 1-5, which the exact
# scheduler answers at once.

_bad_leaf = st.sampled_from([None, True, False, 0, -1, -10**30, 1.5, 2.0,
                             "", "1/0", "nan", "1e3", "-1/2", [], [[1]], {}])
_time = st.sampled_from([1, 2, 5, "3/2", "7/3", "11/5", "13/7"])
_weight = st.sampled_from([1, "1/2", "7/3", 10**30])
_key_lists = st.lists(st.sampled_from(["k1", "k2", "k3"]), min_size=1,
                      max_size=3)
_good_tx = st.fixed_dictionaries({
    "id": st.sampled_from([f"t{i}" for i in range(1, 9)]),
    "time": _time, "keys": _key_lists})
_bad_tx = st.fixed_dictionaries({}, optional={
    "id": st.one_of(st.sampled_from(["t1", "t2"]), _bad_leaf),
    "time": st.one_of(_time, _bad_leaf),
    "keys": st.one_of(_key_lists, st.lists(_bad_leaf, max_size=2), _bad_leaf),
    "extra": _bad_leaf})
_weight_maps = st.dictionaries(st.sampled_from(["k1", "k2", "k9"]),
                               st.one_of(_weight, _bad_leaf), max_size=3)
_tx_lists = st.one_of(
    st.lists(_good_tx, max_size=6),
    st.lists(st.one_of(_good_tx, _bad_tx, _bad_leaf), max_size=6))
_weight_fields = {"weights": st.one_of(_weight_maps, _bad_leaf),
                  "default_weight": st.one_of(_weight, _bad_leaf)}
_block_docs = st.one_of(
    st.fixed_dictionaries({"transactions": _tx_lists},
                          optional=_weight_fields),
    st.fixed_dictionaries({}, optional={
        "transactions": st.one_of(_tx_lists, _bad_leaf), **_weight_fields,
        "bogus": _bad_leaf}),
    _bad_leaf)
_weights_docs = st.one_of(st.none(), _weight_maps,
                          st.fixed_dictionaries({}, optional=_weight_fields),
                          _bad_leaf)


def _ranges(low: int):
    return st.tuples(st.integers(low, 5), st.integers(low, 5)).map(sorted)


_workload_fields = {
    "seed": st.sampled_from([0, 7, -3, 10**30]),
    "bids_per_block": st.integers(1, 6), "time_range": _ranges(1),
    "key_pool": st.sampled_from([1, 3, 8, 10**12, 10**30]),
    "max_keys_per_tx": st.integers(1, 3), "price_range": _ranges(0),
    "price_denominator": st.integers(1, 3)}
_workload_docs = st.one_of(
    st.fixed_dictionaries({}, optional=_workload_fields),
    st.fixed_dictionaries({}, optional={
        **{name: st.one_of(field, _bad_leaf, st.sampled_from([[5, 1], [1]]))
           for name, field in _workload_fields.items()},
        "bogus": _bad_leaf}),
    _bad_leaf)


@pytest.fixture(scope="module")
def docs_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("docs")


def _write(directory, name, doc) -> str:
    path = directory / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def answers_or_exits_2(argv, answers=(0,)):
    """Run ``main(argv)`` in process and check how it ends: in an exit code
    of ``answers`` with JSON that parses, or in exit 2 with one error line
    and, on stdout, nothing or a whole JSON document."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (*answers, 2), (argv, code, err.getvalue())
    if code == 2:
        assert one_error_line(err.getvalue()), (argv, err.getvalue())
    if code != 2 or out.getvalue():
        json.loads(out.getvalue())


@settings(max_examples=150, deadline=None)
@given(block=_block_docs, weights=_weights_docs,
       threads=st.sampled_from(["2", "3", "unbounded"]))
def test_block_and_weights_documents_end_in_an_answer_or_exit_2(
        docs_dir, block, weights, threads):
    block_path = _write(docs_dir, "block.json", block)
    flags = ["--threads", threads, "--format", "json"]
    if weights is not None:
        flags += ["--weights", _write(docs_dir, "weights.json", weights)]
    for mech in ("current", "tpm", "shapley"):
        answers_or_exits_2(["gas", block_path, "--mech", mech, *flags])
    answers_or_exits_2(["schedule", block_path, "--threads", threads,
                        "--format", "json"])


@settings(max_examples=150, deadline=None)
@given(workload=_workload_docs)
def test_workload_documents_end_in_an_answer_or_exit_2(docs_dir, workload):
    answers_or_exits_2(["simulate", "--blocks", "3", "--format", "json",
                        "--workload",
                        _write(docs_dir, "workload.json", workload)])


# Flag values.  Each run draws every flag from values the command accepts
# but for at most one, which gets an adversarial string: a rational-looking
# one, an integer or arbitrary text.  check runs one cell of the matrix, or
# none when a name is unknown.

_good_rational = st.sampled_from(["1", "20", "7/3", "1/1000", " 3 ", "9" * 40,
                                  "1/" + "7" * 40])
_bad_text = st.one_of(
    st.sampled_from(["0", "-1", "-1/2", "", "1/0", "nan", "1e3", "2.5",
                     "1/2/3", "0x10", "10**3", "-" + "9" * 5000]),
    st.integers(-2, 10**6).map(str), st.text(max_size=6))


@settings(max_examples=60, deadline=None)
@given(flags=st.fixed_dictionaries({
           "gas-limit": _good_rational, "target": _good_rational,
           "base-fee": _good_rational,
           "denominator": st.integers(1, 10**6).map(str)}),
       bad=st.sampled_from([None, "gas-limit", "target", "base-fee",
                            "denominator"]),
       bad_value=_bad_text)
def test_simulate_flags_end_in_an_answer_or_exit_2(flags, bad, bad_value):
    if bad is not None:
        flags[bad] = bad_value
    answers_or_exits_2(["simulate", "--blocks", "3", "--format", "json",
                        *(f"--{name}={value}"
                          for name, value in flags.items())])


@settings(max_examples=40, deadline=None)
@given(flags=st.fixed_dictionaries({
           "mech": st.sampled_from(["current", "shapley", "tpm"]),
           "prop": st.sampled_from(["efficiency", "bundling"]),
           "seed": st.integers(-10**30, 10**30).map(str)}),
       bad=st.sampled_from([None, "mech", "prop", "seed"]),
       bad_value=st.text(max_size=6).filter(lambda text: text != "all"),
       budget=st.integers(-1, 3))
def test_check_flags_end_in_an_answer_or_exit_2(flags, bad, bad_value,
                                                budget):
    if bad is not None:
        flags[bad] = bad_value
    answers_or_exits_2(["check", "--format", "json", f"--budget={budget}",
                        *(f"--{name}={value}"
                          for name, value in flags.items())],
                       answers=(0, 1))
