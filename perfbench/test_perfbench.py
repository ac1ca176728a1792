"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -v      (from the repo root)

The oracles are checked against the library on small seeded inputs, the
op plans against their seeds, and the harness against its import policy.
"""
from __future__ import annotations

import ast
import json
import os
import random
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import cmoore  # noqa: E402
import harness  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import wl_cli  # noqa: E402
import wl_cluster  # noqa: E402
import wl_kernels  # noqa: E402
import wl_stores  # noqa: E402

MODULES = {"cluster-sim": wl_cluster, "kernels": wl_kernels, "stores": wl_stores, "cli-oneshot": wl_cli}


def small_tree(rng, depth):
    if depth == 1:
        return [rng.randint(2, 6), "external", []]
    policy = rng.choice(("union", "current-state"))
    outer = rng.randint(2, 4)
    if policy == "current-state":
        states = range(outer)
    else:
        states = sorted(rng.sample(range(outer), rng.randint(1, outer)))
    return [outer, policy, [[s, small_tree(rng, depth - 1 if rng.random() < 0.7 else 1)]
                            for s in states]]


class ClusterOracles(unittest.TestCase):
    def api(self):
        return harness.Api(harness.library_functions(cmoore, harness.Env(str(HERE.parent), "")))

    def test_stepper_matches_simulate(self):
        rng = random.Random(11)
        for _ in range(40):
            tree = small_tree(rng, rng.choice((2, 3)))
            node = wl_cluster.build(self.api(), tree, wl_cluster._depth(tree) - 1)
            report = cmoore.simulate(node, 300)
            counts, emissions = oracles.simulate_counts(tree, 300)
            self.assertEqual([c for _, c in report.state_counts], counts)
            self.assertEqual(report.emissions, emissions)

    def test_orbit_and_closed_form_match_cycle_length_and_unfold(self):
        rng = random.Random(12)
        for _ in range(20):
            sizes = [rng.randint(2, 12) for _ in range(rng.randint(1, 3))]
            tree = [rng.randint(len(sizes), 5), "union",
                    [[i, [s, "external", []]] for i, s in enumerate(sizes)]]
            node = wl_cluster.build(self.api(), tree, 1)
            cycle, signalling = oracles.orbit(tree, 10**6)
            self.assertEqual(cmoore.cycle_length(node).base_ticks, cycle)
            self.assertEqual(oracles.two_level_cycle(tree[0], sizes), cycle)
            machine = cmoore.unfold(node)
            self.assertEqual((len(machine.states), len(machine.outputs)), (cycle, signalling))


class MemoryOracles(unittest.TestCase):
    def test_tape_model(self):
        for seed, replicas in ((1, 1), (2, 3), (3, 3)):
            for style in ("write", "move"):
                script = wl_stores.script(3000, style, seed)
                tape, emitted = cmoore.run_script(cmoore.build_t1(replicas), script)
                masks, head, counter_head, want = oracles.tape_model(script, replicas)
                self.assertEqual((tape.contents, tape.head, tape.counter_head, emitted),
                                 (masks, head, counter_head, want))
                broken = cmoore.corrupt(tape, replicas - 1, seed * 7)
                bits = oracles.majority_bits(broken.contents)
                self.assertEqual([cmoore.read(broken, p) for p in range(256)], bits)

    def test_cell_model(self):
        script = wl_stores.script(2000, "write", 5)
        cell, emitted = cmoore.run_script(cmoore.ByteCell(), script)
        self.assertEqual((cell.bits, cell.head, emitted), oracles.cell_model(script))


class FluentOracles(unittest.TestCase):
    def test_explicit_and_cyclic_windows(self):
        rng = random.Random(21)
        for trial in range(30):
            domain = 2000
            ranges = wl_stores.true_ranges(domain, rng.randint(1, 40), trial)
            period = rng.randint(2, 300)
            lo = rng.randrange(-period, period)
            hi = lo + rng.randint(1, period - 1)
            store = cmoore.FluentStore(base_scale=0)
            store.assign("e", (0, domain), ranges)
            store.cyclic_fluent("c", period, (lo, hi))
            for scale in (1, 2, 3):
                width = 10**scale
                index = rng.randrange(domain // width)
                for mode in wl_stores.MODES:
                    at = cmoore.TimePoint(scale, index)
                    self.assertEqual(cmoore.evaluate(store, "e", at, mode).value,
                                     oracles.explicit_truth(ranges, index * width, width, mode))
                    at = cmoore.TimePoint(scale, index - 5)
                    self.assertEqual(
                        cmoore.evaluate(store, "c", at, mode).value,
                        oracles.cyclic_truth(period, lo, hi, (index - 5) * width, width, mode))


class AnalysisOracles(unittest.TestCase):
    def test_stationary_closed_forms(self):
        for n in range(3, 13):
            vector = cmoore.stationary_distribution(cmoore.wheel(n, loops=("a",)))
            self.assertTrue(oracles.stationary_ok(
                [v for _, v in vector.entries], wl_kernels.lazy_succ(n, 0),
                oracles.lazy_wheel_stationary(n)))
            loop = n // 2
            vector = cmoore.stationary_distribution(
                cmoore.wheel(n, loops=(oracles.wheel_names(n)[loop],)))
            self.assertTrue(oracles.stationary_ok(
                [v for _, v in vector.entries], wl_kernels.lazy_succ(n, loop),
                oracles.lazy_wheel_stationary(n, loop)))
            vector = cmoore.stationary_distribution(cmoore.wheel(n))
            self.assertTrue(oracles.stationary_ok(
                [v for _, v in vector.entries], [[(i + 1) % n] for i in range(n)], [1 / n] * n))

    def test_path_counts(self):
        for seed in range(5):
            succ = wl_kernels.random_unary(12, seed)
            names = [f"q{i}" for i in range(12)]
            machine = cmoore.Automaton.make(
                "u", names, ("e",), "q0", {},
                [(names[p], "e", names[q]) for p, t in enumerate(succ) for q in t])
            counts = oracles.path_counts(succ, 0, 30)
            vector = cmoore.path_count_occupancy(machine, 30)
            self.assertEqual([v for _, v in vector.entries],
                             [Fraction(c, sum(counts)) for c in counts])

    def test_sync_word_replay(self):
        for seed, n in ((1, 6), (2, 12), (3, 40)):
            move = wl_kernels.random_dfa(n, seed)
            names = [f"s{i}" for i in range(n)]
            machine = cmoore.Automaton.make(
                "d", names, ("a", "b", "c"), "s0", {},
                [(names[q], s, names[t]) for (q, s), t in sorted(move.items())])
            result = cmoore.synchronizing_word(machine)
            sink = oracles.synchronizes(move, range(n), result.word)
            self.assertEqual(names[sink], result.sink)
            self.assertIsNone(oracles.synchronizes(move, range(n), ()))

    def test_bisimulation_closed_form(self):
        for left, right in ((3, 3), (4, 8), (5, 7), (9, 9)):
            result = cmoore.bisimilar(cmoore.wheel(left), cmoore.wheel(right))
            self.assertEqual((result.equivalent, len(result.partition)),
                             oracles.wheel_bisim(left, right))

    def test_smallest_wheel(self):
        rng = random.Random(31)
        for _ in range(10):
            probs = [Fraction(p) for p in wl_kernels._distribution(rng)]
            eps = Fraction(1, 100)
            dist = cmoore.FiniteDistribution.make([(f"o{i}", p) for i, p in enumerate(probs)])
            machine = cmoore.approximate_distribution(dist, eps)
            self.assertEqual(len(machine.states), oracles.smallest_size(probs, eps))


class LinguaOracles(unittest.TestCase):
    def test_cyk_counts_and_trees(self):
        lexicon, patterns = cmoore.load_grammar({
            "words": {w: [[c, s] for c, s in e] for w, e in wl_stores.LEXICON.items()},
            "patterns": [[list(p[0]), *p[1:]] for p in wl_stores.PATTERNS],
        })
        chains = [(p[0], p[1]) for p in wl_stores.PATTERNS]
        for seed in range(4):
            for words in wl_stores.sentences(seed)[:3]:
                result = cmoore.parse(words, lexicon, patterns)
                self.assertEqual(oracles.cyk_counts(words, wl_stores.LEXICON, chains),
                                 (len(result.chart), len(result.full)))
                self.assertEqual(sorted(oracles.cyk_trees(words, wl_stores.LEXICON, chains)),
                                 sorted(item.bracket() for item in result.full))

    def test_activation(self):
        names, edges, injections = wl_stores.network(40, 3)
        net = cmoore.ActivationNetwork.build(names, edges)
        for node in injections:
            net = cmoore.inject(net, node)
        fired = []
        for _ in range(10):
            net, now = cmoore.step_network(net)
            fired.append(sorted(now))
        phases = {name: phase.value for name, phase in net.phases}
        self.assertEqual(oracles.activation_run(names, edges, injections, 10), (fired, phases))


class Rounds(unittest.TestCase):
    """One round of every workload passes, except its named known-bad ops."""

    def check_round(self, workload):
        module = MODULES[workload]
        with tempfile.TemporaryDirectory() as workdir:
            env = harness.Env(str(HERE.parent), workdir)
            api = harness.Api(harness.library_functions(cmoore, env))
            ops = module.setup(module.plan(random.Random(5)), api, env)
            tally = harness.Tally()
            harness.run_round(ops, api, tally, 0)
        self.assertEqual(tally.unexpected, 0, dict(tally.failures))
        self.assertEqual(tally.failed, 1)

    def test_cluster_sim(self):
        self.check_round("cluster-sim")

    def test_kernels(self):
        self.check_round("kernels")

    def test_stores(self):
        self.check_round("stores")

    def test_cli_oneshot(self):
        self.check_round("cli-oneshot")


class Plans(unittest.TestCase):
    def test_seed_fixes_the_op_list(self):
        for workload, module in MODULES.items():
            first = json.dumps(module.plan(random.Random(7)), sort_keys=True)
            again = json.dumps(module.plan(random.Random(7)), sort_keys=True)
            other = json.dumps(module.plan(random.Random(8)), sort_keys=True)
            self.assertEqual(first, again, workload)
            self.assertNotEqual(first, other, workload)

    def test_imports_are_stdlib_or_cmoore(self):
        local = {p.stem for p in HERE.glob("*.py")}
        allowed = set(sys.stdlib_module_names) | {"cmoore", "__future__"} | local
        for path in HERE.glob("*.py"):
            if path.name.startswith("test_"):
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                for name in names:
                    self.assertIn(name.split(".")[0], allowed, f"{path.name} imports {name}")

    def test_benchmark_json_lists_what_run_prints(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    os.chdir(HERE.parent)
    unittest.main()
