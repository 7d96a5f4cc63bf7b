"""One sha256 per graph builder over seeded instances, and one per README
CLI example, to show that a change leaves every builder's output, and what
the command prints, as it was.

    python3 tools/outputs.py [--count N]

For each builder, instance i is drawn from random.Random(i) for i below
count, and the builder's results are hashed as graphs.dumps prints them
(what the CLI prints), one result after another.  Each line is
"<sha256>  <builder>".  Then build_gamma_w's complexes, drawn the same
way, are hashed as `complex gamma-w` prints them: "<sha256>  build_gamma_w".
Then the graph builders' results' indexes are hashed, as
their readers see them (index_text), each line "<sha256>  index/<builder>":
an index a builder hands its graph must read as the one the graph would
build from its edges.  Then decompose is run on seeded random automata,
Stallings graphs and folds, each with a simple word drawn from the same
rng (one in four has a letter on no edge), and sigma_w's items, in the
order decompose filled them, and the orbit cycles are hashed, each line
"<sha256>  decompose/<kind>".  Then check_main_inequality is run on
seeded random automata with simple words drawn the same way, classless
and with a class, and the repr of its report's six attributes (and of
the Betti report's per-component numbers) is hashed:
"<sha256>  report/check_main_inequality".  Then each `wordcycles ...`
example line of README.md runs in process (click's CliRunner) on the
fixed input files of cli_inputs, and its exit code, stdout and stderr are
hashed together; verify's wall_time is dropped first.  Each line is "<sha256>  <example>".
Then the --help of the wordcycles command and of each group and command
under it is hashed the same way, at a fixed terminal width of 80 columns
(the width changes how click wraps it), each line "<sha256>  wordcycles
... --help".  Last, each demos/*.py runs in a subprocess with PYTHONPATH set
to the checkout's src/, and its stdout is hashed: "<sha256>  demos/<name>".
Run it in two checkouts and compare the lines: the wordcycles package is
imported from the checkout the script lies in.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from click.testing import CliRunner  # noqa: E402

from wordcycles.cli import _complex_to_json, main as cli  # noqa: E402
from wordcycles.complexes import TwoComplex, build_gamma_w  # noqa: E402
from wordcycles.cycles import (  # noqa: E402
    MainInequalityReport, WCycleDecomposition, check_main_inequality, decompose)
from wordcycles.generators import (  # noqa: E402
    TrialConfig, random_connected_automaton, random_inverse_automaton, random_simple_word,
    random_staggered_presentation, random_subgroup)
from wordcycles.graphs import (  # noqa: E402
    LabeledDigraph, betti, canonical_form, component_containing, core, dumps, fiber_product,
    fold, to_json)
from wordcycles.subgroups import (  # noqa: E402
    SubgroupGraph, conjugate, intersect, stallings_graph)
from wordcycles.words import Word, format_word, parse_word  # noqa: E402

COUNT = 500  # instances per builder


def config(rng: random.Random) -> TrialConfig:
    return TrialConfig(alphabet=rng.randint(1, 3), max_vertices=14, edge_density=0.6)


def letters(rng: random.Random, alphabet: int, most: int) -> tuple[int, ...]:
    """Up to most letters over the alphabet, drawn freely, so cancelling
    pairs occur."""
    return tuple(rng.choice((1, -1)) * rng.randint(1, alphabet)
                 for _ in range(rng.randint(0, most)))


def based(rng: random.Random, cfg: TrialConfig | None = None) -> LabeledDigraph:
    """A connected automaton, hanging trees and all, based at a random vertex."""
    g = random_connected_automaton(cfg or config(rng), rng)
    return LabeledDigraph(g.alphabet, g.num_vertices, g.edges, rng.randrange(g.num_vertices))


def tangle(rng: random.Random) -> LabeledDigraph:
    """Random edges, based, clashes and parallel duplicates included."""
    alphabet, n = rng.randint(1, 3), rng.randint(1, 12)
    edges = tuple((rng.randrange(n), rng.randrange(n), rng.randint(1, alphabet))
                  for _ in range(rng.randint(0, 2 * n)))
    return LabeledDigraph(alphabet, n, edges, rng.randrange(n))


def product_pair(rng: random.Random):
    cfg = config(rng)
    return based(rng, cfg), based(rng, cfg)


def subgroup_pair(rng: random.Random):
    cfg = config(rng)
    return random_subgroup(cfg, rng), random_subgroup(cfg, rng)


def unbased_form(rng: random.Random) -> LabeledDigraph:
    return canonical_form(random_connected_automaton(config(rng), rng))


def stallings(rng: random.Random) -> LabeledDigraph:
    alphabet = rng.randint(1, 3)
    gens = [letters(rng, alphabet, 10) for _ in range(rng.randint(1, 4))]
    return stallings_graph(gens, alphabet).graph


def conjugated(rng: random.Random) -> LabeledDigraph:
    h = random_subgroup(config(rng), rng)
    return conjugate(h, letters(rng, h.graph.alphabet, 8)).graph


def component(rng: random.Random) -> LabeledDigraph:
    g = tangle(rng)
    return component_containing(g, rng.randrange(g.num_vertices))


BUILDERS = {
    "canonical_form/based": lambda rng: canonical_form(based(rng)),
    "canonical_form/unbased": unbased_form,
    "core": lambda rng: core(based(rng)),
    # fold's output does not depend on its pop order: the two fold lines agree
    "fold/lifo": lambda rng: fold(tangle(rng)),
    "fold/seeded": lambda rng: fold(tangle(rng), random.Random(rng.getrandbits(32))),
    "fiber_product": lambda rng: fiber_product(*product_pair(rng)),
    "component_containing": component,
    "stallings_graph": stallings,
    "conjugate": conjugated,
    "intersect": lambda rng: intersect(*subgroup_pair(rng)).graph,
    # the public constructor on folded tangles, most of them disconnected
    "SubgroupGraph": lambda rng: SubgroupGraph(fold(tangle(rng))).graph,
}


def gamma_w(rng: random.Random) -> TwoComplex:
    """The disc complex of a random automaton, components and all, and a
    simple word."""
    cfg = config(rng)
    return build_gamma_w(decompose(random_inverse_automaton(cfg, rng),
                                   random_simple_word(cfg, rng)))


def complex_text(x: TwoComplex) -> str:
    """x as `complex gamma-w` prints it."""
    return json.dumps(_complex_to_json(x), indent=2)


def index_text(g: LabeledDigraph) -> str:
    """g's index as its readers see it: the successor rows by letter, the
    determinism flag, the clash pairs in the order the loader found them,
    each vertex's component and each component's Betti number."""
    return repr((sorted(g.successor.items()), g.deterministic, g._clashes, g.component_of,
                 betti(g).bettis))


def simple_word(rng: random.Random, g: LabeledDigraph) -> Word:
    """A simple word of 1 to 8 letters over g's alphabet, or one time in
    four over one letter more, which lies on no edge of g."""
    cfg = TrialConfig(alphabet=g.alphabet + (rng.random() < 0.25), max_word_length=8)
    return random_simple_word(cfg, rng)


def decomposed(rng: random.Random, g: LabeledDigraph) -> WCycleDecomposition:
    return decompose(g, simple_word(rng, g))


DECOMPOSED = {
    "decompose/automaton": lambda rng: decomposed(rng, random_inverse_automaton(config(rng),
                                                                                rng)),
    "decompose/stallings_graph": lambda rng: decomposed(rng, stallings(rng)),
    "decompose/fold": lambda rng: decomposed(rng, fold(tangle(rng))),
}


def decomposition_text(dec: WCycleDecomposition) -> str:
    """sigma_w's items in the order decompose filled it, and the orbit
    cycles in class order."""
    return repr((list(dec.sigma.items()), dec.cycles))


def main_report(rng: random.Random) -> MainInequalityReport:
    g = random_inverse_automaton(config(rng), rng)
    return check_main_inequality(g, simple_word(rng, g))


REPORTS = {"report/check_main_inequality": main_report}


def report_text(rep: MainInequalityReport) -> str:
    """The report's six attributes, Betti side included whether or not the
    check read it, and the per-component Betti numbers."""
    return repr((rep.component_classes, rep.betti_report, rep.betti_report.bettis,
                 rep.total_classes, rep.total_betti, rep.passed, rep.count_with_multiplicity))


def digests(count: int = COUNT, show=dumps, builders=BUILDERS) -> dict[str, str]:
    """builder name -> sha256 of show(result) over instances 0..count-1."""
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # stallings_graph warns of unreduced generators
        for name, build in builders.items():
            h = hashlib.sha256()
            for i in range(count):
                h.update(show(build(random.Random(i))).encode() + b"\n")
            out[name] = h.hexdigest()
    return out


def gamma_digests(count: int = COUNT) -> dict[str, str]:
    """"build_gamma_w" -> sha256 of complex_text over its complexes."""
    return digests(count, complex_text, {"build_gamma_w": gamma_w})


def index_digests(count: int = COUNT) -> dict[str, str]:
    """"index/<builder>" -> sha256 of index_text over its results."""
    return {f"index/{name}": d for name, d in digests(count, index_text).items()}


def decompose_digests(count: int = COUNT) -> dict[str, str]:
    """"decompose/<kind>" -> sha256 of decomposition_text over its
    decompositions."""
    return digests(count, decomposition_text, DECOMPOSED)


def report_digests(count: int = COUNT) -> dict[str, str]:
    """"report/<check>" -> sha256 of report_text over its reports."""
    return digests(count, report_text, REPORTS)


def cli_examples() -> list[str]:
    """The README's `wordcycles ...` example lines, comments dropped."""
    lines = (ROOT / "README.md").read_text().splitlines()
    return [" ".join(line.split("#")[0].split()) for line in lines
            if line.startswith("wordcycles ")]


def cli_helps() -> list[str]:
    """`wordcycles ... --help` for the command and every group and command
    under it, depth first in the order click lists them."""
    def walk(command, path):
        yield " ".join(["wordcycles", *path, "--help"])
        for name in sorted(getattr(command, "commands", {})):
            yield from walk(command.commands[name], [*path, name])
    return list(walk(cli, []))


def _based(cfg: TrialConfig, seed: int) -> LabeledDigraph:
    g = random_connected_automaton(cfg, random.Random(seed))
    return LabeledDigraph(g.alphabet, g.num_vertices, g.edges, 0)


def _subgroup(seed: int) -> dict:
    rng, cfg = random.Random(seed), TrialConfig(max_word_length=8)
    return {"alphabet": 2,
            "generators": [format_word(random_simple_word(cfg, rng)) for _ in range(2)]}


def cli_inputs() -> dict[str, dict]:
    """The files the README examples name, from fixed seeds.  g.json is
    based at vertex 0, where abAB closes at once (so --attach 0:1 holds),
    and s.json is the README's own."""
    g = _based(TrialConfig(max_vertices=8), 8)
    x = build_gamma_w(decompose(g, parse_word("abAB")))
    p = random_staggered_presentation(TrialConfig(), random.Random(3), 2)
    return {
        "g.json": to_json(g),
        "g1.json": to_json(_based(TrialConfig(max_vertices=6), 5)),
        "g2.json": to_json(_based(TrialConfig(max_vertices=6), 15)),
        "x.json": _complex_to_json(x),
        "p.json": {"alphabet": p.alphabet, "relators": [format_word(r) for r in p.relators],
                   "ordered_letters": list(p.ordered_letters)},
        "s.json": {"alphabet": 2, "generators": ["aa", "b"]},
        "s1.json": _subgroup(2),
        "s2.json": _subgroup(12),
    }


def cli_digests() -> dict[str, str]:
    """README example, then help line -> sha256 of its [exit code, stdout,
    stderr] as JSON, run 80 columns wide in a temporary directory holding
    cli_inputs."""
    runner, out = CliRunner(), {}
    with runner.isolated_filesystem():
        for name, obj in cli_inputs().items():
            Path(name).write_text(json.dumps(obj))
        for example in [*cli_examples(), *cli_helps()]:
            args = example.split()[1:]
            result = runner.invoke(cli, args, catch_exceptions=False, terminal_width=80)
            stdout = result.stdout
            if args[0] == "verify" and args[-1] != "--help":
                report = json.loads(stdout)
                del report["wall_time"]
                stdout = json.dumps(report)
            text = json.dumps([result.exit_code, stdout, result.stderr])
            out[example] = hashlib.sha256(text.encode()).hexdigest()
    return out


def demo_digests() -> dict[str, str]:
    """"demos/<name>" -> sha256 of what the demo prints, run on this
    checkout's src/."""
    env, out = {**os.environ, "PYTHONPATH": str(ROOT / "src")}, {}
    for demo in sorted((ROOT / "demos").glob("*.py")):
        run = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                             check=True)
        out[f"demos/{demo.name}"] = hashlib.sha256(run.stdout).hexdigest()
    return out


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=COUNT, help="instances per builder")
    args = ap.parse_args(argv)
    for name, digest in {**digests(args.count), **gamma_digests(args.count),
                         **index_digests(args.count), **decompose_digests(args.count),
                         **report_digests(args.count), **cli_digests(),
                         **demo_digests()}.items():
        print(f"{digest}  {name}")


if __name__ == "__main__":
    main()
