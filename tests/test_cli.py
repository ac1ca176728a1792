"""Command-line surface: exit codes, text output, stable JSON."""
import contextlib
import io
import json
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cmoore.analysis import OCCUPANCY_WORK_LIMIT, SYNC_WORK_LIMIT
from cmoore.cli import dispatch
from cmoore.cluster import (
    CYCLE_WINDOW_LIMIT, SIMULATE_WORK_LIMIT, ClusterNode, node_to_json, product, simulate
)
from cmoore.errors import InputDomainError
from cmoore.lingua import PARSE_ITEM_LIMIT, inject, load_network, step_network
from cmoore.memory import build_t1, run_script
from cmoore.machine import from_json, to_doc, to_json
from cmoore.menagerie import AKTIONSART_CLASSES, SCHEMA_NAMES, build, wheel
from test_analysis import cerny, kernels_shaped_dfa, permutation_dfa
from test_cluster import OTHER_EMITTING_SETS
from test_machine import TWO_WHEEL


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestOccupancy:
    def test_stationary_text(self, capsys):
        code, out = run_cli(
            capsys, "occupancy", "--machine", "wheel:2,loops=a", "--mode", "stationary"
        )
        assert code == 0
        assert out.strip() == "0.666667, 0.333333"

    def test_path_count_requires_steps(self, capsys):
        code, _ = run_cli(capsys, "occupancy", "--machine", "wheel:2,loops=a", "--mode", "path-count")
        assert code == 2

    def test_path_count_over_the_work_limit_is_one_json_line(self, capsys):
        code, out = run_cli(
            capsys,
            "occupancy", "--machine", "wheel:10000", "--mode", "path-count", "--steps", "100000",
        )
        assert code == 1
        (line,) = out.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "budget"
        assert "work limit" in payload["message"]
        assert payload["used"] == (10_000 + 10_000 + 24) * 100_000  # 24 visits a step
        assert payload["limit"] == OCCUPANCY_WORK_LIMIT

    def test_mc_over_the_work_limit_is_one_json_line(self, capsys):
        code, out = run_cli(
            capsys,
            "occupancy", "--machine", "wheel:3,loops=a+b+c", "--mode", "mc",
            "--steps", "1000000000", "--seed", "1",
        )
        assert code == 1
        (line,) = out.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "budget"
        assert "work limit" in payload["message"]
        assert (payload["used"], payload["limit"]) == (24 * 10**9, OCCUPANCY_WORK_LIMIT)

    def test_mc_json_requires_seed(self, capsys):
        code, _ = run_cli(
            capsys,
            "occupancy", "--machine", "wheel:3", "--mode", "mc",
            "--steps", "100", "--format", "json",
        )
        assert code == 2

    def test_mc_json_payload(self, capsys):
        code, out = run_cli(
            capsys,
            "occupancy", "--machine", "wheel:3", "--mode", "mc",
            "--steps", "300", "--seed", "5", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"exact", "mode", "signals", "states"}
        assert abs(sum(payload["states"].values()) - 1) < 1e-9

    def test_json_output_is_stable(self, capsys):
        _, first = run_cli(
            capsys, "occupancy", "--machine", "wheel:4", "--mode", "stationary", "--format", "json"
        )
        _, second = run_cli(
            capsys, "occupancy", "--machine", "wheel:4", "--mode", "stationary", "--format", "json"
        )
        assert first == second


class TestClassify:
    def test_chain_five(self, capsys):
        code, out = run_cli(capsys, "classify", "--machine", "chain:5")
        assert code == 0
        assert out.strip() == "L(5)"

    def test_wheel_seven(self, capsys):
        _, out = run_cli(capsys, "classify", "--machine", "wheel:7")
        assert out.strip() == "C(7)"

    def test_cluster_flags(self, capsys):
        code, out = run_cli(
            capsys,
            "classify", "--machine", "wheel:2",
            "--inner", "a=wheel:3", "--inner", "b=wheel:5",
        )
        assert code == 0
        assert out.strip().startswith("C(")


class TestParse:
    def test_one_sentence_tree_with_three_senses(self, capsys):
        code, out = run_cli(capsys, "parse", "--sentence", "Eleanor broke the record")
        assert code == 0
        assert out.count("(S ") == 1
        assert "record1|record2|record3" in out

    def test_context_filters(self, capsys):
        _, out = run_cli(
            capsys,
            "parse", "--sentence", "Eleanor broke the record",
            "--context", "Eleanor=athlete",
        )
        assert "record1" not in out
        assert "{" not in out  # a single remaining sense prints without braces

    def test_context_without_equals_is_a_usage_error(self, capsys):
        code = dispatch(["parse", "--sentence", "Eleanor broke the record", "--context", "Eleanor"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--context wants ENTITY=PROPERTY, got 'Eleanor'" in captured.err

    def test_unknown_word_is_a_domain_error(self, capsys):
        code, out = run_cli(capsys, "parse", "--sentence", "Eleanor broke the zeugma")
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "input"


class TestValidate:
    def test_clean_machine(self, capsys):
        code, out = run_cli(capsys, "validate", "--machine", "wheel:4")
        assert code == 0
        assert out.strip() == "ok"

    def test_violations_are_reported_not_fatal(self, capsys, monkeypatch):
        monkeypatch.setenv("CMA_CONSTRAINTS", "m=3,s=256,o=8,i=3")
        code, out = run_cli(capsys, "validate", "--machine", "wheel:4")
        assert code == 0
        assert "ss:" in out

    @pytest.mark.parametrize("override", ["zz=1", "m=0", "m=-5", "m=x"])
    def test_bad_env_override(self, capsys, monkeypatch, override):
        monkeypatch.setenv("CMA_CONSTRAINTS", override)
        code, out = run_cli(capsys, "validate", "--machine", "wheel:4")
        assert code == 1
        assert one_json_line(out)

    def test_a_cluster_is_validated_layer_by_layer(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("CMA_CONSTRAINTS", "m=3")
        inline = ["--machine", "wheel:2", "--inner", "a=wheel:3", "--inner", "b=wheel:5"]
        path = tmp_path / "cluster.json"
        path.write_text(node_to_json(product(wheel(3), wheel(5))))
        for source in (inline, ["--cluster", str(path)]):
            code, out = run_cli(capsys, "validate", *source)
            assert code == 0
            assert out.splitlines()[-1].endswith("/b:wheel-5: 5 states exceed 3")
        monkeypatch.delenv("CMA_CONSTRAINTS")
        assert run_cli(capsys, "validate", *inline) == (0, "ok\n")


class TestCycleLength:
    def test_inline_cluster(self, capsys):
        code, out = run_cli(
            capsys,
            "cycle-length", "--machine", "wheel:2",
            "--inner", "a=wheel:3", "--inner", "b=wheel:5",
        )
        assert code == 0
        assert out.strip() == "30"

    def test_sizes_shortcut(self, capsys):
        code, out = run_cli(capsys, "cycle-length", "--sizes", "2:3,5", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"base_ticks": 30, "digits": 2, "verified": False}

    def test_classify_reads_the_cycle_length_past_the_unfold_budget(self, capsys):
        cluster = ["--machine", "wheel:4", "--inner", "a=wheel:301", "--inner", "b=wheel:307"]
        code, out = run_cli(capsys, "classify", *cluster)
        assert code == 0
        assert out.strip() == "C(369628)"
        code, out = run_cli(capsys, "cycle-length", *cluster, "--format", "json")
        assert code == 0
        assert json.loads(out) == {"base_ticks": 369628, "digits": 6, "verified": True}

    def test_a_window_of_thousands_of_digits_is_one_json_line(self, capsys):
        # one size shares factors with the others, so the 4,349-digit lcm is
        # refused; past the int-to-str limit ``used`` is given by its leading digits
        sizes = "1229:" + ",".join(
            str(s) for s in __import__("cmoore").max_prime_power_sizes(10_000)
        ) + ",6"
        code, out = run_cli(capsys, "cycle-length", "--sizes", sizes, "--format", "json")
        assert code == 1
        (line,) = out.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "budget"
        assert "(4349 digits)" in payload["message"]
        assert payload["used"].endswith("...e4348")
        assert payload["limit"] == CYCLE_WINDOW_LIMIT

    def test_astronomical_descriptor(self, capsys):
        sizes = "1229:" + ",".join(
            str(s) for s in __import__("cmoore").max_prime_power_sizes(10_000)
        )
        code, out = run_cli(capsys, "cycle-length", "--sizes", sizes, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["digits"] > 4348
        assert "base_ticks" not in payload


@pytest.mark.parametrize("case", sorted(OTHER_EMITTING_SETS))
def test_cycle_length_of_other_emitting_sets(capsys, tmp_path, case):
    node, expected = OTHER_EMITTING_SETS[case]
    path = tmp_path / "cluster.json"
    path.write_text(node_to_json(node))
    code, out = run_cli(capsys, "cycle-length", "--cluster", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out) == {"base_ticks": expected, "digits": len(str(expected)), "verified": True}
    code, out = run_cli(capsys, "classify", "--cluster", str(path))
    assert out.strip() == f"C({expected})"


def test_three_level_cycle_length(capsys, tmp_path):
    path = tmp_path / "cluster.json"
    leaf = {"machine": to_doc(wheel(3)), "scale": 0}
    mid = {"machine": to_doc(wheel(2)), "scale": 1, "inner": {"a": leaf}}
    path.write_text(json.dumps({"machine": to_doc(wheel(2)), "scale": 2, "inner": {"a": mid}}))
    code, out = run_cli(capsys, "cycle-length", "--cluster", str(path))
    assert code == 0
    assert out.strip() == "12"


class TestOtherCommands:
    def test_sync_word(self, capsys):
        code, out = run_cli(capsys, "sync-word", "--machine", "wire:xy")
        assert code == 0
        assert "word=x" in out
        code, out = run_cli(capsys, "sync-word", "--machine", "wheel:5")
        assert out.strip() == "none"

    def test_sync_word_past_the_subset_search_is_greedy(self, capsys, tmp_path):
        path = tmp_path / "dfa.json"
        path.write_text(to_json(kernels_shaped_dfa(600, seed=1)))
        code, out = run_cli(capsys, "sync-word", "--machine", str(path))
        assert code == 0
        assert "shortest=false" in out

    def test_sync_word_over_the_work_limit_is_one_json_line(self, capsys, tmp_path):
        path = tmp_path / "cerny.json"
        path.write_text(to_json(cerny(10_000)))
        code, out = run_cli(capsys, "sync-word", "--machine", str(path))
        assert code == 1
        (line,) = out.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "budget"
        assert "work limit" in payload["message"]
        assert payload["used"] > payload["limit"] == SYNC_WORK_LIMIT

    def test_bisim(self, capsys):
        code, out = run_cli(capsys, "bisim", "--machine", "wheel:4", "--other", "wheel:2")
        assert code == 0
        assert out.strip() == "false"

    def test_bisim_of_a_myriad_wheel_pair(self, capsys):
        start = time.perf_counter()
        code, out = run_cli(capsys, "bisim", "--machine", "wheel:10000", "--other", "wheel:10000")
        assert time.perf_counter() - start < 2
        assert code == 0
        assert out.splitlines() == ["true"]

    def test_sync_word_of_permutation_letters_is_one_null_line(self, capsys, tmp_path):
        path = tmp_path / "perm.json"
        path.write_text(to_json(permutation_dfa(10_000, 2, seed=3)))
        code, out = run_cli(capsys, "sync-word", "--machine", str(path), "--format", "json")
        assert code == 0
        (line,) = out.splitlines()
        assert json.loads(line) == {"word": None}

    def test_simulate(self, capsys):
        code, out = run_cli(
            capsys,
            "simulate", "--machine", "wheel:2",
            "--inner", "a=wheel:3", "--inner", "b=wheel:5",
            "--ticks", "3000", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert 0.45 <= payload["occupancy"]["a"] <= 0.55
        assert payload["halted"] is False

    def test_simulate_under_the_current_state_policy(self, capsys):
        code, out = run_cli(
            capsys,
            "simulate", "--machine", "wheel:2",
            "--inner", "a=wheel:3", "--inner", "b=wheel:5",
            "--policy", "current", "--ticks", "30", "--format", "json",
        )
        assert code == 0
        inner = (("a", ClusterNode.leaf(wheel(3))), ("b", ClusterNode.leaf(wheel(5))))
        report = simulate(ClusterNode(wheel(2), 1, inner, "current-state"), 30)
        assert json.loads(out) == {
            "ticks_run": 30, "occupancy": report.occupancy(),
            "emissions": report.emissions, "halted": False,
        }

    def test_simulate_over_the_work_limit_is_one_json_line(self, capsys):
        start = time.perf_counter()
        code, out = run_cli(
            capsys,
            "simulate", "--machine", "wheel:2", "--inner", "a=wheel:3", "--ticks", "1000000000",
        )
        assert time.perf_counter() - start < 1
        assert code == 1
        (line,) = out.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "budget"
        assert f"work limit {SIMULATE_WORK_LIMIT}" in payload["message"]
        assert payload["used"] == 10**9 * 2  # an outer wheel and one leaf per tick
        assert payload["limit"] == SIMULATE_WORK_LIMIT

    def test_export_dot(self, capsys, tmp_path):
        out_path = tmp_path / "wheel.dot"
        code, _ = run_cli(capsys, "export-dot", "--machine", "wheel:3", "--out", str(out_path))
        assert code == 0
        assert out_path.read_text().startswith("digraph")

    def test_machine_from_file(self, capsys, tmp_path):
        path = tmp_path / "machine.json"
        path.write_text(to_json(wheel(6)))
        code, out = run_cli(capsys, "classify", "--machine", str(path))
        assert code == 0
        assert out.strip() == "C(6)"

    def test_missing_machine_argument(self, capsys):
        code, out = run_cli(capsys, "classify", "--machine", "nosuchfile.json")
        assert code == 1

    def test_approx_dist(self, capsys, tmp_path):
        out_path = tmp_path / "wheel.json"
        code, out = run_cli(
            capsys,
            "approx-dist", "--probs", "0.5,0.3,0.2", "--eps", "0.01",
            "--out", str(out_path),
        )
        assert code == 0
        assert "size=10" in out
        machine = from_json(out_path.read_text())
        assert len(machine.states) == 10

    def test_approx_dist_infeasible(self, capsys):
        code, out = run_cli(
            capsys, "approx-dist", "--probs", "0.5,0.2500001,0.2499999", "--eps", "1e-9"
        )
        assert code == 1
        assert json.loads(out)["error"] == "infeasible"

    def test_approx_dist_below_one_state_per_outcome_is_one_json_line(self, capsys, monkeypatch):
        monkeypatch.setenv("CMA_CONSTRAINTS", "m=2")
        code, out = run_cli(capsys, "approx-dist", "--probs", "0.2,0.3,0.5", "--eps", "0.1")
        assert code == 1
        (line,) = out.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "infeasible"
        assert "one per outcome" in payload["message"]

    def test_tape_script_and_fault(self, capsys, tmp_path):
        script = tmp_path / "script.txt"
        script.write_text("nu\nnu\nalpha\n")
        code, out = run_cli(
            capsys,
            "tape", "--script", str(script), "--inject-fault", "1:2", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["head"] == 2
        assert payload["counter"] == 2
        assert payload["majority_bits"].rstrip("0").endswith("1") or payload["majority_bits"][-3] == "1"

    def test_tape_symbols(self, capsys):
        code, out = run_cli(capsys, "tape", "--symbols", "nu, nu,,alpha")
        assert code == 0
        tape, _ = run_script(build_t1(), ["nu", "nu", "alpha"])
        assert out.splitlines() == [
            *(f"replica{r}={tape.content_hex(r)}" for r in range(3)),
            "head=2 counter=2",
        ]
        assert tape.content_hex(0).endswith("04")

    def test_fluent_eval(self, capsys, tmp_path):
        store = tmp_path / "store.json"
        store.write_text(
            json.dumps(
                {
                    "base_scale": 0,
                    "fluents": {"rain": {"domain": [0, 1000], "true": [[0, 501]]}},
                }
            )
        )
        code, out = run_cli(
            capsys,
            "fluent", "--store", str(store), "--name", "rain",
            "--at", "3.0", "--mode", "preponderant",
        )
        assert code == 0
        assert out.strip() == "undefined"

    def test_activate_demo(self, capsys):
        code, out = run_cli(
            capsys,
            "activate", "--net", "grief-demo",
            "--inject", "death(y)", "--inject", "death(y)",
            "--inject", "y", "--inject", "y",
            "--steps", "2",
        )
        assert code == 0
        assert "grief(x)" in out

    def test_activate_the_unaware_demo(self, capsys):
        # the parent does not know the child, so no grief fires
        code, out = run_cli(
            capsys,
            "activate", "--net", "grief-demo-unaware",
            "--inject", "death(y)", "--inject", "death(y)",
            "--inject", "y", "--inject", "y",
            "--steps", "2",
        )
        assert code == 0
        assert out.splitlines() == ["step 1: fired death(y), y", "step 2: fired -"]

    def test_usage_error_exit_code(self, capsys):
        assert dispatch(["no-such-command"]) == 2
        captured = capsys.readouterr()  # argparse writes to stderr
        assert captured.out == ""


def test_unary_cycle_grammar_is_one_json_line(capsys, tmp_path):
    grammar = tmp_path / "grammar.json"
    grammar.write_text(json.dumps({
        "words": THE_DOG,
        "patterns": [[["N"], "N"], [["Art", "N"], "NP"]],
    }))
    code, out = run_cli(capsys, "parse", "--lexicon", str(grammar), "--sentence", "the dog")
    assert code == 1
    assert one_json_line(out) == (
        f"{grammar}: malformed grammar document: unary patterns form a cycle: N -> N"
    )


def test_ambiguous_parse_over_the_item_limit_is_one_json_line(capsys, tmp_path):
    grammar = tmp_path / "grammar.json"
    grammar.write_text(json.dumps({
        "words": {"x": [["A", ["s0"]], ["A", ["s1"]]]},
        "patterns": [[["A", "A"], "A"], [["A", "A"], "A", 0], [["A", "A", "A"], "A"]],
    }))
    start = time.perf_counter()
    code, out = run_cli(
        capsys, "parse", "--lexicon", str(grammar), "--sentence", "x x x x x x x"
    )
    assert time.perf_counter() - start < 5
    assert code == 1
    (line,) = out.splitlines()
    payload = json.loads(line)
    assert payload["error"] == "budget"
    assert f"more than {PARSE_ITEM_LIMIT} items" in payload["message"]
    assert (payload["used"], payload["limit"]) == (PARSE_ITEM_LIMIT + 1, PARSE_ITEM_LIMIT)


def test_parse_with_grammar_file(capsys, tmp_path):
    grammar = tmp_path / "grammar.json"
    grammar.write_text(
        json.dumps(
            {
                "words": {
                    "stars": [["N", ["stars"]]],
                    "the": [["Art", ["the"]]],
                },
                "patterns": [[["Art", "N"], "NP"]],
            }
        )
    )
    code = dispatch(["parse", "--lexicon", str(grammar), "--sentence", "the stars"])
    out = capsys.readouterr().out
    assert code == 0
    assert "(NP (Art the) (N stars))" in out


FILE_OPTIONS = {
    "tape": ["tape", "--script"],
    "fluent": ["fluent", "--name", "rain", "--at", "1.0", "--store"],
    "parse": ["parse", "--sentence", "the dog", "--lexicon"],
    "activate": ["activate", "--net"],
    "machine": ["occupancy", "--machine"],
}


def bad_file(tmp_path, kind):
    if kind == "missing":
        return tmp_path / "absent.json"
    if kind == "directory":
        return tmp_path
    path = tmp_path / "bad.json"
    if kind == "not-utf8":
        path.write_bytes(b"\xff\xfe\x00")
    else:
        path.write_text("{not json")
    return path


@pytest.mark.parametrize(
    "command,kind",
    [(command, kind) for command in FILE_OPTIONS for kind in ("missing", "directory", "not-utf8")]
    + [(command, "not-json") for command in ("fluent", "parse", "activate")],
)
def test_bad_input_file_is_one_json_line(capsys, tmp_path, command, kind):
    code, out = run_cli(capsys, *FILE_OPTIONS[command], str(bad_file(tmp_path, kind)))
    assert code == 1
    (line,) = out.splitlines()
    payload = json.loads(line)
    assert payload["error"] == "input"
    assert payload["message"]


@pytest.mark.parametrize(
    "argv,kind",
    [
        (["occupancy", "--machine"], "machine"),
        (["validate", "--cluster"], "cluster"),
        (FILE_OPTIONS["fluent"], "store"),
        (FILE_OPTIONS["parse"], "grammar"),
        (FILE_OPTIONS["activate"], "network"),
    ],
    ids=["machine", "cluster", "store", "grammar", "network"],
)
def test_a_file_that_is_not_json_names_its_kind(capsys, tmp_path, argv, kind):
    path = bad_file(tmp_path, "not-json")
    code, out = run_cli(capsys, *argv, str(path))
    assert code == 1
    assert one_json_line(out).startswith(f"{path}: malformed {kind} document: Expecting")


def test_activate_lists_every_phase_of_a_large_network(capsys, tmp_path):
    # one phase per node; reading them once each keeps the command linear
    nodes = [f"n{i:05d}" for i in range(3000)]
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"nodes": nodes, "edges": list(zip(nodes, nodes[1:]))}))
    code, out = run_cli(
        capsys, "activate", "--net", str(path), "--inject", nodes[0], "--inject", nodes[0],
        "--steps", "1", "--format", "json",
    )
    assert code == 0
    net, fired = step_network(inject(inject(load_network(json.loads(path.read_text())),
                                            nodes[0]), nodes[0]))
    assert fired == {nodes[0]}
    payload = json.loads(out)
    assert payload["trace"] == [[nodes[0]]]
    assert list(payload["phases"]) == nodes  # sorted keys, which is network order here
    assert payload["phases"] == {name: net.phase_of(name).value for name in nodes}


@pytest.mark.parametrize(
    "command",
    [
        ["export-dot", "--machine", "wheel:2"],
        ["approx-dist", "--probs", "1/2,1/2", "--eps", "1/10"],
    ],
    ids=["export-dot", "approx-dist"],
)
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_out_is_one_json_line(capsys, tmp_path, command, target):
    out = tmp_path if target == "directory" else tmp_path / "absent" / "out"
    code, printed = run_cli(capsys, *command, "--out", str(out))
    assert code == 1
    assert one_json_line(printed)


def test_inner_machine_on_unknown_state_is_one_json_line(capsys):
    code, out = run_cli(
        capsys, "simulate", "--machine", "wheel:2", "--inner", "x=wheel:3", "--ticks", "5"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload == {"error": "input", "message": "inner node attached to unknown state 'x'"}


def one_json_line(out):
    (line,) = out.splitlines()
    payload = json.loads(line)
    assert payload["error"] == "input"
    return payload["message"]


@pytest.mark.parametrize(
    "argv,option,value",
    [
        (["approx-dist", "--probs", "1/2,1/2", "--eps", "1/0"], "--eps", "1/0"),
        (["approx-dist", "--probs", "1/0,1", "--eps", "1/10"], "--probs", "1/0,1"),
        (FILE_OPTIONS["fluent"] + ["{store}", "--theta", "1/0"], "--theta", "1/0"),
    ],
    ids=["eps", "probs", "theta"],
)
def test_zero_denominator_is_one_json_line(capsys, tmp_path, argv, option, value):
    store = tmp_path / "store.json"
    store.write_text(json.dumps({"fluents": {"rain": {"domain": [0, 10], "true": [[0, 5]]}}}))
    code, out = run_cli(capsys, *(arg.format(store=store) for arg in argv))
    assert code == 1
    assert one_json_line(out) == f"{option}: {value!r} has a zero denominator"


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {"fluents": []},
        {"cyclic": 5},
        {"fluents": {"rain": {"true": [[0, 5]]}}},
        {"cyclic": {"day": {"phase": [0, 48]}}},
        {"cyclic": {"day": {"period": 96}}},
        {"fluents": {"rain": {"domain": [0, 10], "true": [[0.5, 3]]}}},
        {"fluents": {"rain": {"domain": [0, True], "true": []}}},
        {"fluents": {"rain": {"domain": [0.0, 10], "true": []}}},
        {"base_scale": "0"},
        {"fluents": {"rain": {"domain": [0, 10], "true": 5}}},
    ],
    ids=[
        "top-level-list", "fluents-list", "cyclic-number", "no-domain", "no-period",
        "no-phase", "float-range-bound", "bool-domain-bound", "float-domain-bound",
        "base-scale-string", "true-not-a-list",
    ],
)
def test_wrong_shape_store_is_one_json_line(capsys, tmp_path, doc):
    store = tmp_path / "store.json"
    store.write_text(json.dumps(doc))
    code, out = run_cli(capsys, *FILE_OPTIONS["fluent"], str(store))
    assert code == 1
    assert one_json_line(out)


THE_DOG = {"the": [["Art", ["the"]]], "dog": [["N", ["dog"]]]}


@pytest.mark.parametrize(
    "command,doc",
    [
        ("activate", []),
        ("activate", {}),
        ("activate", {"nodes": ["a"], "edges": [["a", "z"]]}),
        ("activate", {"nodes": "abc"}),
        ("activate", {"nodes": ["a", "b"], "edges": ["ab"]}),
        ("activate", {"nodes": ["a", "b"], "static_links": [["a", "b"]]}),
        ("cluster", []),
        ("cluster", {"machine": to_doc(wheel(2)),
                     "inner": {"a": {"machine": to_doc(wheel(3)), "scale": "x"}}}),
        ("parse", {"words": []}),
        # each parses "the dog" at once if strings pass for lists or numbers for strings
        ("parse", {"words": THE_DOG, "patterns": [["AN", "NP"]]}),
        ("parse", {"words": {**THE_DOG, "dog": [["N", "dog"]]}}),
        ("parse", {"words": THE_DOG, "morphology": {"the": ["the", "PL"]}}),
        ("parse", {"words": {**THE_DOG, "dog": [[1, ["dog"]]]}}),
        ("parse", {"words": THE_DOG, "patterns": [[["Art", "N"], "NP", True]]}),
        # each but the edge pair classifies as C(2) if strings pass for lists or numbers
        # for strings; the cluster simulates
        ("machine", {**TWO_WHEEL, "states": "ab"}),
        ("machine", {**TWO_WHEEL, "edges": ["aeb", "bea"]}),
        ("machine", {**TWO_WHEEL, "states": [1, 2], "initial": 1, "outputs": {},
                     "edges": [[1, "e", 2], [2, "e", 1]]}),
        ("machine", {**TWO_WHEEL, "outputs": {"b": 1}}),
        ("machine", {**TWO_WHEEL, "outputs": [["b", "1"]]}),
        ("machine", {**TWO_WHEEL, "edges": [["a", "e"], ["b", "e", "a"]]}),
        ("cluster", {"machine": {**TWO_WHEEL, "states": "ab"}}),
    ],
    ids=[
        "net-list", "net-without-nodes", "net-unknown-edge", "net-nodes-string",
        "net-edge-string", "net-link-pair", "cluster-list",
        "cluster-string-scale", "lexicon-words-list", "lexicon-sequence-string",
        "lexicon-senses-string", "lexicon-features-string", "lexicon-category-number",
        "lexicon-bool-head", "machine-states-string", "machine-edges-strings",
        "machine-states-numbers", "machine-output-number", "machine-outputs-list",
        "machine-edge-pair", "cluster-machine-states-string",
    ],
)
def test_wrong_shape_document_is_one_json_line(capsys, tmp_path, command, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = {
        "activate": FILE_OPTIONS["activate"],
        "cluster": ["validate", "--cluster"],
        "machine": ["classify", "--machine"],
        "parse": FILE_OPTIONS["parse"],
    }[command]
    code, out = run_cli(capsys, *argv, str(path))
    assert code == 1
    assert one_json_line(out)


@pytest.mark.parametrize(
    "argv,doc,prefix",
    [
        (["classify", "--machine"], {**TWO_WHEEL, "edges": [["a", "e"]]},
         "malformed machine document: "),
        (FILE_OPTIONS["parse"], {"words": []}, "malformed grammar document: "),
        (FILE_OPTIONS["fluent"], {"fluents": []}, ""),
    ],
    ids=["machine", "grammar", "store"],
)
def test_document_error_names_the_file(capsys, tmp_path, argv, doc, prefix):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, *argv, str(path))
    assert code == 1
    assert one_json_line(out).startswith(f"{path}: {prefix}")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["classify", "--machine", "wheel:3", "--horizon", "-1"], "horizon must be >= 0, got -1"),
        (["activate", "--steps", "-1"], "steps must be >= 0, got -1"),
    ],
    ids=["classify-horizon", "activate-steps"],
)
def test_negative_count_is_one_json_line(capsys, argv, message):
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert one_json_line(out) == message


@pytest.mark.parametrize(
    "argv",
    [
        ["approx-dist", "--probs", "abc", "--eps", "1/10"],
        ["approx-dist", "--probs", "1/2,1/2", "--eps", "zz"],
        ["approx-dist", "--probs", "1/2,1/4", "--eps", "1/10"],
        ["approx-dist", "--probs", "1/0", "--eps", "1/10"],
    ],
    ids=["probs-not-a-number", "eps-not-a-number", "probs-not-summing-to-one", "probs-zero-division"],
)
def test_bad_fraction_is_one_json_line(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert one_json_line(out)


def test_bad_theta_is_one_json_line(capsys, tmp_path):
    store = tmp_path / "store.json"
    store.write_text(json.dumps({"fluents": {"rain": {"domain": [0, 10], "true": []}}}))
    code, out = run_cli(capsys, "fluent", "--store", str(store), "--name", "rain", "--at", "1.0",
                        "--theta", "zz")
    assert code == 1
    assert one_json_line(out) == "--theta: Invalid literal for Fraction: 'zz'"


def test_scale_zero_cyclic_query_answers(capsys, tmp_path):
    # a scale-0 window over base -18 holds 10**18 units of a period-96 cycle
    store = tmp_path / "store.json"
    store.write_text(json.dumps({"base_scale": -18, "cyclic": {"day": {"period": 96, "phase": [24, 72]}}}))
    outs = []
    for mode in ("forall", "exists", "preponderant"):
        code, out = run_cli(capsys, "fluent", "--store", str(store), "--name", "day", "--at", "0.-3",
                            "--mode", mode)
        assert code == 0
        outs.append(out.strip())
    assert outs == ["false", "true", "undefined"]


@pytest.mark.parametrize(
    "repeated,once",
    [("wheel:3,loops=a+a", "wheel:3,loops=a"), ("chain:3,loops=b+b", "chain:3,loops=b")],
)
def test_a_repeated_loop_state_exports_one_self_loop(capsys, repeated, once):
    code, out = run_cli(capsys, "export-dot", "--machine", repeated)
    assert code == 0
    want = run_cli(capsys, "export-dot", "--machine", once)[1]
    # the first line holds the machine's name, which keeps the spec's loop list
    assert out.splitlines()[1:] == want.splitlines()[1:]


def test_an_empty_wire_symbol_is_one_json_line(capsys):
    code, out = run_cli(capsys, "export-dot", "--machine", "wire:a+")
    assert code == 1
    assert one_json_line(out) == "wire symbols must be non-empty"


@st.composite
def inline_specs(draw):
    """``--machine`` specs from the spec grammar: every kind and an unknown
    one, heads with or without surrounding spaces, sizes -1..5, zero to two
    ``loops=`` options with repeats, unknown states and empty parts, and wire
    symbols, "+"-separated with empty parts or one per character."""
    kind = draw(st.sampled_from(("wheel", "chain", "synapse", "wire", "akt", "schema", "gizmo")))
    head = draw(st.sampled_from(("", " "))) + kind + draw(st.sampled_from(("", " ", "\t")))
    if kind in ("wheel", "chain"):
        spec = f"{head}:{draw(st.integers(-1, 5))}"
        loop_lists = st.lists(st.sampled_from(("a", "b", "e", "zz", "")), max_size=4)
        for loops in draw(st.lists(loop_lists, max_size=2)):
            spec += ",loops=" + "+".join(loops)
        return spec
    if kind == "synapse":
        return f"{head}:" + "".join(draw(st.lists(st.sampled_from("rabt"), max_size=4)))
    if kind == "wire":
        parts = ("0", "1", "a", "01", "rest", "")
        return f"{head}:" + "+".join(draw(st.lists(st.sampled_from(parts), min_size=1, max_size=4)))
    if kind == "gizmo":
        return f"{head}:3"
    names = AKTIONSART_CLASSES if kind == "akt" else SCHEMA_NAMES
    return f"{head}:" + draw(st.sampled_from(names + ("", "run")))


@settings(deadline=None, max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@example("wheel:3,loops=a+a", "export-dot")
@example("wire:a+", "classify")
@example(" wheel :4", "classify")
@example("chain:3,loops=a,loops=b", "export-dot")
@given(inline_specs(), st.sampled_from(("export-dot", "classify")))
def test_no_inline_spec_ends_in_a_traceback(spec, command):
    """Exit 0, or 1 with one JSON line holding the error and its message,
    or 2 for a usage error; no exception escapes.  A spec that ``build``
    accepts is never called "neither a known machine spec nor a file".
    stdout is redirected by hand, as pytest's capture fixtures are not reset
    between examples."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = dispatch([command, "--machine", spec])
    assert code in (0, 1, 2)
    if code == 1:
        (line,) = out.getvalue().splitlines()
        assert set(json.loads(line)) == {"error", "message"}
    try:
        build(spec)
    except InputDomainError:
        return
    assert "neither a known machine spec nor a file" not in out.getvalue()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["validate"], "need --machine (with optional --inner) or --cluster FILE"),
        (["classify"], "need --machine (with optional --inner) or --cluster FILE"),
        (["occupancy"], "need --machine"),
        (["sync-word"], "need --machine"),
        (["export-dot"], "need --machine"),
        (["bisim", "--other", "wheel:2"], "need --machine"),
        (["export-dot", "--machine", ""], "need --machine"),
    ],
    ids=["validate", "classify", "occupancy", "sync-word", "export-dot", "bisim", "empty"],
)
def test_missing_machine_is_one_usage_line(capsys, argv, message):
    """The same check as a cluster command without --machine or --cluster:
    exit 2, nothing on stdout, and one line on stderr."""
    code = dispatch(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"usage error: {message}"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--machine", "wheel:2", "--inner", "a", "--ticks", "3"],
         "--inner wants STATE=SPEC, got 'a'"),
        (["occupancy", "--machine", "wheel:3", "--mode", "mc", "--seed", "1"],
         "--mode mc requires --steps"),
        (["tape", "--symbols", "nu", "--inject-fault", "1"],
         "--inject-fault wants REPLICA:POS, got '1'"),
        (["cycle-length", "--sizes", "2:x"], "--sizes wants OUTER:L1,L2,..., got '2:x'"),
    ],
    ids=["inner-without-equals", "mc-without-steps", "inject-fault", "sizes"],
)
def test_a_malformed_option_is_one_usage_line(capsys, argv, message):
    code = dispatch(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"usage error: {message}"]
