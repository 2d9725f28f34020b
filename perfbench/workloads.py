"""The benchmark's four seeded workloads.

Each workload turns a seed into a plan: rounds of jobs, plus a few
warm-up jobs that never appear in the rounds.  A round mixes one job of
every cost class, so the mix of work is the same at any seed and at any
number of completed rounds.  The seed decides which inputs fill the
rounds (and their order); mullsem receives only those inputs.

Inputs whose answers cannot be computed independently come from finite
universes (a small formula grammar, a phase-space corpus) whose answers
were recorded once in ``golden/`` by ``make_golden.py``.  Dualization,
polar membership and least fixpoints are checked by ``oracles``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracles
from oracles import Mismatch

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
JOB_LIMIT_S = 30


@dataclass
class Job:
    """One unit of user work and the check of its answer.

    ``call`` is a zero-argument callable for API jobs and the argument
    list after ``--format machine`` for CLI jobs.  ``defect`` names a
    documented defect of the program that makes the job fail at the
    seed; the job still runs and counts as failed.
    """

    key: str
    call: Callable[[], object] | list
    check: Callable[[object], None]
    defect: str | None = None


@dataclass
class Plan:
    rounds: list
    warmup: list

    def jobs(self):
        return [job for rnd in self.rounds for job in rnd]


def load_golden(name):
    with open(GOLDEN / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


def _stratified_rounds(rng, strata, pair_of):
    """Rounds taking one entry of every stratum, never reusing a pair.

    ``pair_of(entry)`` names what may not repeat within one plan.
    """
    pools = [_shuffled(rng, s) for s in strata]
    used = set()
    rounds = []
    while True:
        rnd = []
        for pool in pools:
            while pool and pair_of(pool[-1]) in used:
                pool.pop()
            if not pool:
                return rounds
            entry = pool.pop()
            used.add(pair_of(entry))
            rnd.append(entry)
        rng.shuffle(rnd)
        rounds.append(rnd)


# ---------------------------------------------------------------------------
# answers in the shape of the machine output

def totality_answer(space):
    antichain = sorted(sorted(str(e) for e in s)
                       for s in space.family.min_sets())
    return {"carrier": [str(e) for e in space.carrier],
            "minimal_antichain": antichain,
            "stabilized": space.stabilized}


def rel_answer(carrier):
    return {"carrier": [str(e) for e in carrier], "size": len(carrier),
            "stabilized": carrier.stabilized}


def interpret(pkg, model, text, depth):
    """parse, check variance and interpret, as ``mullsem interp`` does."""
    f = pkg.parse(text)
    pkg.check_variance(pkg.EMPTY_CONTEXT, f)
    budgets = pkg.Budgets(depth=depth, bag=2)
    if model == "totality":
        return totality_answer(pkg.interpret_totality(f, {}, budgets))
    return rel_answer(pkg.interpret_carrier(f, {}, budgets))


def golden_check(golden, key):
    return lambda answer: oracles.expect_digest(answer, golden, key)


# ---------------------------------------------------------------------------
# totality-fixpoints

LEAVES = ("1", "(1 + 1)", "(1 + 1 + 1)", "(1 + (1 + 1))")
SINGLE = ("{L} + x", "{L} + x * x", "{L} + x * {M}", "{L} + {M} * x",
          "{L} + !x", "{L} + (x & x)", "{L} + x + x", "{L} + (x & {M})",
          "{L} + x * (mu y. {M} + y)", "{L} + x * (nu y. {M} + y)",
          "{L} + !x * {M}", "{L} + (x | x)", "{L} + ?x", "({L} + x) * {M}")
NESTED = ("{L} + x * y", "{L} + y * x", "{L} + (x + y)", "{L} + x + y * y",
          "{L} + !x + y", "{L} + (x & y)", "{L} + x * {M} + y",
          "{L} + y * y + x")
BINDER_PAIRS = (("mu", "nu"), ("nu", "mu"), ("mu", "mu"), ("nu", "nu"))
# the ROADMAP headline case, one of the heaviest class
HEADLINE = "totality|3|mu x. nu y. 1 + x * y"


def fixpoint_formulas():
    """The grammar: one or two binders over units, sums, products and !."""
    out = []
    for body in SINGLE:
        for binder in ("mu", "nu"):
            for leaf in LEAVES:
                for mid in LEAVES[:2]:
                    if "{M}" not in body and mid != LEAVES[0]:
                        continue
                    out.append(f"{binder} x. " + body.format(L=leaf, M=mid))
    for body in NESTED:
        for outer, inner in BINDER_PAIRS:
            for leaf in LEAVES:
                out.append(f"{outer} x. {inner} y. "
                           + body.format(L=leaf, M=LEAVES[1]))
    return list(dict.fromkeys(out))


def fixpoint_candidates():
    """Every (model, depth, formula) job the grammar can give."""
    return [f"{model}|{depth}|{text}" for text in fixpoint_formulas()
            for depth in (3, 4) for model in ("totality", "rel")]


def fixpoint_job(pkg, golden, key):
    model, depth, text = key.split("|", 2)
    return Job(key, lambda: interpret(pkg, model, text, int(depth)),
               golden_check(golden, key))


def plan_totality(pkg, seed, workdir):
    golden = load_golden("totality-fixpoints")
    digests = golden["digests"]
    rng = random.Random(f"totality-fixpoints/{seed}")

    def pair(key):
        return key.split("|", 1)[1]
    # the heaviest class has MAX_ROUNDS jobs and every plan runs them all,
    # so no lighter job may take the formula/depth pair of one of them
    heavy, *lighter = golden["classes"]
    taken = {pair(k) for k in heavy}
    strata = [heavy] + [[k for k in c if pair(k) not in taken]
                        for c in lighter]
    rounds = _stratified_rounds(rng, strata, pair)
    return Plan([[fixpoint_job(pkg, digests, k) for k in rnd] for rnd in rounds],
                [fixpoint_job(pkg, digests, k) for k in golden["warmup"]])


# ---------------------------------------------------------------------------
# dualization

# (carrier width, edge size, edge count, instances) of the antichains
DUAL_SHAPES = ((8, 2, 6, 120), (12, 2, 10, 120), (12, 3, 10, 120),
               (16, 2, 16, 120), (16, 3, 12, 120), (20, 3, 14, 120),
               (20, 3, 18, 120), (24, 2, 24, 120), (24, 3, 16, 200),
               (24, 3, 20, 400))
UNIT_SUMS = ("1", "(1 + 1)", "(1 + 1 + 1)", "(1 + (1 + 1))")


def dual_candidates():
    """Keys of every antichain instance: shape and index of its draw."""
    return [f"dual|{w}|{k}|{m}|{i}" for w, k, m, count in DUAL_SHAPES
            for i in range(count)]


def antichain(key):
    """The uniform antichain named by a key, as sorted label lists."""
    _, width, size, count, index = key.split("|")
    width, size, count = int(width), int(size), int(count)
    rng = random.Random(f"dualization/{width}-{size}-{count}-{index}")
    edges = set()
    while len(edges) < count:
        edges.add(frozenset(rng.sample(range(width), size)))
    labels = _labels(width)
    return width, sorted(sorted(labels[i] for i in e) for e in edges)


def dual_formulas():
    """~, | and ? over sums of units (carriers small enough to dualize)."""
    out = []
    for a in UNIT_SUMS:
        out += [f"~{a}", f"?{a}", f"~?{a}", f"?~{a}"]
        for b in UNIT_SUMS:
            out += [f"{a} | {b}", f"~{a} | {b}", f"?{a} | {b}",
                    f"~({a} * {b})", f"~{a} | ~{b}"]
    return list(dict.fromkeys(out))


def dual_formula_candidates():
    return [f"totality|3|{text}" for text in dual_formulas()]


def _labels(width):
    return [f"e{i:02d}" for i in range(width)]


def dualize(pkg, width, sets):
    """biclosure, then orthogonal twice, as a user would chain them."""
    carrier = pkg.Carrier(_labels(width))
    closed = pkg.biclosure(carrier, sets, max_carrier=width)
    first = pkg.orthogonal(closed, max_carrier=width)
    second = pkg.orthogonal(first, max_carrier=width)
    return carrier, closed, first, second


def dual_job(pkg, key):
    width, sets = antichain(key)
    index = {label: i for i, label in enumerate(_labels(width))}
    edges = [sum(1 << index[x] for x in s) for s in sets]

    def check(answer):
        carrier, *families = answer
        bit = [1 << index[e] for e in carrier.elems]

        def ours(family):
            return [sum(b for i, b in enumerate(bit) if m >> i & 1)
                    for m in family.minima]
        oracles.check_dualization(edges, *map(ours, families))
    return Job(key, lambda: dualize(pkg, width, sets), check)


def plan_dualization(pkg, seed, workdir):
    golden = load_golden("dualization")
    digests = golden["digests"]
    rng = random.Random(f"dualization/{seed}")
    classes = golden["classes"] + [golden["formulas"]]
    rounds = _stratified_rounds(rng, classes, lambda key: key)
    jobs = [[fixpoint_job(pkg, digests, k) if k.startswith("totality|")
             else dual_job(pkg, k) for k in rnd] for rnd in rounds]
    warm = [dual_job(pkg, k) if k.startswith("dual|")
            else fixpoint_job(pkg, digests, k) for k in golden["warmup"]]
    return Plan(jobs, warm)


# ---------------------------------------------------------------------------
# phase-search

ATOMS = ("1", "bot", "top", "0", "(1 + bot)", "(1 & bot)", "(1 * bot)", "!1",
         "?bot", "(mu x. 1 + x)", "(nu x. 1 * x)", "(1 | bot)")
VALID = ("{A} -o {A}", "{A} * {B} -o {B} * {A}", "{A} & {B} -o {A}",
         "{A} -o {A} + {B}", "!{A} -o {A}", "{A} -o ?{A}", "!{A} -o 1",
         "!{A} -o !{A} * !{A}")
INVALID = ("{A} -o {A} * {A}", "{A} + {B} -o {A}", "?{A} -o {A}",
           "{A} -o !{A}", "{A} -o {A} & {B}", "{A} * {B} -o {A}",
           "{A} & {B} -o {A} * {B}", "{A} + {B} -o {A} & {B}",
           "{A} -o {B}", "{A} | {B} -o {A}")


def phase_formulas():
    out = []
    for schema in VALID + INVALID:
        for a in ATOMS:  # B is the next atom, so each schema gives 12
            out.append(schema.format(A=a, B=ATOMS[(ATOMS.index(a) + 1)
                                                  % len(ATOMS)]))
    return list(dict.fromkeys(out))


def search_job(pkg, golden, text, size=5):
    key = f"search|{size}|{text}"

    def call():
        f = pkg.parse(text)
        pkg.check_variance(pkg.EMPTY_CONTEXT, f)
        found = pkg.search_counter_model(f, size)
        return None if found is None else found.to_dict()
    return Job(key, call, golden_check(golden, key))


def sweep_job(pkg, golden, text, size=3):
    key = f"sweep|{size}|{text}"

    def call():
        f = pkg.parse(text)
        pkg.check_variance(pkg.EMPTY_CONTEXT, f)
        out = []
        for space in pkg.phase.enumerate_spaces(size):
            fact = pkg.interpret_phase(space, f)
            out.append([pkg.holds(space, f),
                        sorted(fact, key=space.elements.index)])
        return out
    return Job(key, call, golden_check(golden, key))


SWEEPS_PER_ROUND = 5


def plan_phase(pkg, seed, workdir):
    golden = load_golden("phase-search")
    digests = golden["digests"]
    rng = random.Random(f"phase-search/{seed}")
    valid = _shuffled(rng, golden["exhaustive"])
    early = _shuffled(rng, golden["early"])
    sweeps = _shuffled(rng, golden["sweeps"])
    rounds = []
    while valid and early and len(sweeps) >= SWEEPS_PER_ROUND:
        rnd = [search_job(pkg, digests, valid.pop()),
               search_job(pkg, digests, early.pop())]
        rnd += [sweep_job(pkg, digests, sweeps.pop())
                for _ in range(SWEEPS_PER_ROUND)]
        rng.shuffle(rnd)
        rounds.append(rnd)
    warm = [search_job(pkg, digests, text, 3) for text in golden["warmup"]]
    return Plan(rounds, warm)


# ---------------------------------------------------------------------------
# cli-batch

CLI_VARIANCE = ("mu x. 1 + x", "nu x. 1 * x", "mu x. nu y. 1 + x * y",
                "~(mu x. 1 + x)", "!(1 + bot) -o 1", "mu x. ?(1 + x)")
CLI_REL = ("mu x. 1 + x * x", "mu x. 1 + !x", "nu x. (1 + 1) + x * x",
           "mu x. (1 + 1) + x * (mu y. 1 + y)")
CLI_TOTALITY = ("mu x. 1 + x * x", "mu x. (1 + 1) + x * (1 + 1)",
                "nu x. 1 + x * (mu y. 1 + y)", "mu x. 1 + (x & x)")
# ~, ? and | over small carriers: the totality model's orthogonal and
# minimal_transversals, which no other cli-batch command reaches
CLI_ORTHOGONAL = ("~(mu x. 1 + x)", "?(mu x. 1 + x)", "~(mu x. (1 + 1) + x)",
                  "(mu x. 1 + x) | (1 + 1)", "~((1 + 1) * (1 + 1 + 1))")
CLI_WREL = ("mu x. 1 + x", "nu x. (1 + 1) + x", "mu x. 1 + x * (1 + 1)")
CLI_PHASE_FORMULAS = ("1 -o 1", "mu x. x", "nu x. 1 * x", "?bot", "!1 * bot",
                      "(1 + bot) -o 1")
CLI_SEARCH4 = ("1 -o 1 * 1", "!(1 + 1) -o 1", "bot -o bot * bot",
               "?1 -o 1")
# exhaustive size-5 searches, every one in every pass: the slowest
# commands, so that the tail percentile of a run falls among them (see
# MAX_ROUNDS).  Their costs lie within 10% of each other, so the tail does
# not move with the seed.
CLI_SEARCH5 = ("!1 -o !1", "bot -o ?bot", "(1 & bot) -o 1")
POLES = ("pcoh", "nat", "totality")

# commutative monoids written out by hand: (elements, products, unit)
CLI_SPACES = (
    (("1", "m"), (("m", "m", "1"),), "1"),
    (("e", "a", "b"), (("a", "a", "b"), ("a", "b", "e"), ("b", "b", "a")), "e"),
    (("e", "z"), (("z", "z", "z"),), "e"),
    (("e", "a", "z"), (("a", "a", "a"), ("a", "z", "z"), ("z", "z", "z")), "e"),
)


def space_text(index, pole_mask):
    elements, products, unit = CLI_SPACES[index]
    lines = ["elements " + " ".join(elements), f"unit {unit}"]
    lines += [f"mul {a} {b} {c}" for a, b, c in products]
    lines.append("pole " + " ".join(e for i, e in enumerate(elements)
                                     if pole_mask >> i & 1))
    return "\n".join(lines) + "\n"


def cli_golden_commands():
    """Every golden-checked CLI command, with the phase-space files named
    ``space-<index>-<pole>`` (written by the caller)."""
    cmds = [["variance", f] for f in CLI_VARIANCE]
    cmds += [["interp", "--model", "rel", "--depth", "3", f] for f in CLI_REL]
    cmds += [["interp", "--model", "totality", "--depth", "3", f]
             for f in CLI_TOTALITY + CLI_ORTHOGONAL]
    cmds += [["interp", "--model", "wrel", "--depth", "3", f] for f in CLI_WREL]
    for i, (elements, _, _) in enumerate(CLI_SPACES):
        for pole in range(1, 1 << len(elements)):
            for f in CLI_PHASE_FORMULAS:
                cmds.append(["interp", "--model", "phase", "--space",
                             f"space-{i}-{pole}", f])
    cmds += [["phase-search", "--max-size", "4", f] for f in CLI_SEARCH4]
    cmds += [["phase-search", "--max-size", "5", f] for f in CLI_SEARCH5]
    cmds += [["admissible", "--pole", p] for p in POLES]
    return cmds


def cli_key(argv):
    """Golden key of a command: file arguments by their base name."""
    return " ".join(os.path.basename(a) if a.startswith(os.sep) else a
                    for a in argv)


def cli_parse(answer):
    code, out, err = answer
    if code != 0:
        raise Mismatch(f"exit code {code}: {err.strip()[-200:]}")
    try:
        return json.loads(out)
    except ValueError as exc:
        raise Mismatch(f"output is not JSON: {exc}") from exc


def _frac(rng, choices):
    return Fraction(rng.choice(choices))


def fix_inputs(rng):
    """(file name, text, mode, least fixpoint per coordinate, defect)."""
    a, b = _frac(rng, ("1/4", "1/3", "1/2", "2/3", "1", "3/2")), \
        _frac(rng, ("1/4", "1/3", "2/5", "1/2"))
    p, q = _frac(rng, ("1/4", "1/5", "1/3")), _frac(rng, ("1/4", "1/3", "1/2"))
    c, d = _frac(rng, ("1/5", "1/3", "1/2", "1")), \
        _frac(rng, ("1/4", "1/3", "1/2"))
    ea, eb = _frac(rng, ("1/3", "1/2", "3/4")), _frac(rng, ("1/4", "1/3", "1/2"))
    # x = a + b*y, y = c + d*x with b*d <= 1/4: solve exactly
    x_sys = (a + b * c) / (1 - b * d)
    y_sys = c + d * x_sys
    return [
        ("linear.fx", f"x: {a} + {b} * x\n", "float", {"x": a / (1 - b)}, None),
        ("quadratic.fx", f"x: {p} + {q} * x * x\n", "float",
         {"x": oracles.quadratic_lfp(p, q)}, None),
        ("system.fx", f"x: {a} + {b} * y\ny: {c} + {d} * x\n", "float",
         {"x": x_sys, "y": y_sys}, None),
        ("critical.fx", "x: 1/2 + 1/2 * x * x\n", "float", {"x": 1},
         "critical fix: Kleene iteration is sublinear at x = 1/2 + 1/2 x^2 "
         "and exhausts --max-iter (ROADMAP item 2d)"),
        ("exact.fx", f"x: {ea} + {eb} * x\n", "exact", {"x": ea / (1 - eb)},
         None),
    ]


def polar_inputs(rng, name, dim):
    """Generator and point files over the [0,1] pole, and their oracle."""
    count = rng.randint(3, 5)
    values = ("0", "1/4", "1/2", "1", "3/2", "2")
    gens = [[rng.choice(values) for _ in range(dim)] for _ in range(count)]
    point = [rng.choice(("0", "1/8", "1/4", "1/2")) for _ in range(dim)]
    cols = [f"c{j}" for j in range(dim)]
    rows = [f"g{i}" for i in range(count)]
    gtext = ["rows " + " ".join(rows), "cols " + " ".join(cols)]
    gtext += [f"{rows[i]} {cols[j]} {v}" for i, g in enumerate(gens)
              for j, v in enumerate(g) if v != "0"]
    ptext = ["rows v", "cols " + " ".join(cols)]
    ptext += [f"v {cols[j]} {v}" for j, v in enumerate(point) if v != "0"]
    return (f"{name}.gen", "\n".join(gtext) + "\n",
            f"{name}.pt", "\n".join(ptext) + "\n", gens, point)


def _fix_check(lfp):
    return lambda ans: oracles.check_fix_values(cli_parse(ans), lfp)


def _polar_check(gens, point):
    expected = []

    def check(ans):
        if not expected:  # the oracle is slow; a run repeats the command
            expected.append(oracles.polar_member(gens, point))
        got = cli_parse(ans)["member"]
        if got is not expected[0]:
            raise Mismatch(f"member {got}, vertex enumeration says "
                           f"{expected[0]}")
    return check


def cli_jobs(seed, workdir):
    """The command list of one cli-batch pass; input files go to workdir.

    A job's key names its command and the digest of the files it reads,
    so that seeds with different file contents give different job lists.
    """
    rng = random.Random(f"cli-batch/{seed}")
    golden = load_golden("cli-batch")["digests"]
    jobs = []

    def write(name, text):
        path = Path(workdir, name)
        path.write_text(text, encoding="utf-8")
        return str(path)

    def add(argv, check, defect=None):
        files = "".join(Path(a).read_text(encoding="utf-8") for a in argv
                        if a.startswith(os.sep))
        key = cli_key(argv)
        if files:
            key += f" @{oracles.digest(files)[:8]}"
        jobs.append(Job(key, argv, check, defect))

    def add_golden(argv):
        key = cli_key(argv)
        add(argv, lambda ans: oracles.expect_digest(cli_parse(ans), golden,
                                                    key))

    add_golden(["variance", rng.choice(CLI_VARIANCE)])
    add_golden(["interp", "--model", "rel", "--depth", "3",
                rng.choice(CLI_REL)])
    add_golden(["interp", "--model", "totality", "--depth", "3",
                rng.choice(CLI_TOTALITY)])
    add_golden(["interp", "--model", "totality", "--depth", "3",
                rng.choice(CLI_ORTHOGONAL)])
    index = rng.randrange(len(CLI_SPACES))
    pole = rng.randrange(1, 1 << len(CLI_SPACES[index][0]))
    space = write(f"space-{index}-{pole}", space_text(index, pole))
    add_golden(["interp", "--model", "phase", "--space", space,
                rng.choice(CLI_PHASE_FORMULAS)])
    add_golden(["interp", "--model", "wrel", "--depth", "3",
                rng.choice(CLI_WREL)])
    add_golden(["phase-search", "--max-size", "4", rng.choice(CLI_SEARCH4)])
    for text in CLI_SEARCH5:
        add_golden(["phase-search", "--max-size", "5", text])
    for name, text, mode, lfp, defect in fix_inputs(rng):
        argv = ["fix", "--expr", write(name, text)]
        if mode == "exact":
            argv += ["--mode", "exact"]
        add(argv, _fix_check(lfp), defect)
    for name, dim in (("polar-a", rng.randint(3, 5)),
                      ("polar-b", rng.randint(6, 8))):
        gname, gtext, pname, ptext, gens, point = polar_inputs(rng, name, dim)
        add(["polar", "--generators", write(gname, gtext),
             "--point", write(pname, ptext)], _polar_check(gens, point))
    for p in POLES:
        add_golden(["admissible", "--pole", p])
    return jobs


def cli_env():
    env = dict(os.environ)
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_cli_subprocess(argv, env, limit=JOB_LIMIT_S):
    """One ``python -m mullsem --format machine`` child, waited for."""
    proc = subprocess.run([sys.executable, "-m", "mullsem", "--format",
                           "machine", *argv], capture_output=True, text=True,
                          env=env, timeout=limit, check=False)
    return proc.returncode, proc.stdout, proc.stderr


def run_cli_inprocess(pkg, argv):
    """The same command through ``mullsem.cli.main`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pkg.cli.main(["--format", "machine", *argv])
    return code, out.getvalue(), err.getvalue()


def plan_cli(pkg, seed, workdir):
    """The same pass, repeated: users pay start-up on every command."""
    jobs = cli_jobs(seed, workdir)
    return Plan([list(jobs) for _ in range(MAX_ROUNDS["cli-batch"])], [])


WORKLOADS = {
    "totality-fixpoints": plan_totality,
    "dualization": plan_dualization,
    "phase-search": plan_phase,
    "cli-batch": plan_cli,
}
# Seconds one round takes on the machine the golden times come from (2
# vCPU, pure kernels), and the most rounds a run takes (the number of
# jobs in the heaviest class, for totality-fixpoints).  The round count
# of a run depends only on --seconds, never on the speed of the machine,
# so the tail percentile of a workload is fixed: at MAX_ROUNDS it falls
# in the middle of the second-heaviest class of totality-fixpoints (p75
# of 80 jobs), inside the heaviest class of dualization (p95 of 225) and
# phase-search (p90 of 154), and among the size-5 searches of cli-batch
# (p90 of 160).
ROUND_S = {"totality-fixpoints": 5.9, "dualization": 0.57, "phase-search": 0.89,
           "cli-batch": 6.0}
MAX_ROUNDS = {"totality-fixpoints": 8, "dualization": 45, "phase-search": 22,
              "cli-batch": 8}


def plan(name, pkg, seed, workdir, seconds):
    """The rounds of one run, in a seeded order: as many as take
    ``seconds`` on the reference machine, up to MAX_ROUNDS."""
    made = WORKLOADS[name](pkg, seed, workdir)
    count = min(MAX_ROUNDS[name], max(1, int(seconds / ROUND_S[name])))
    made.rounds = made.rounds[:count]
    random.Random(f"{name}/{seed}/order").shuffle(made.rounds)
    return made
