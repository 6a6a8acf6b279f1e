"""Seeded input generators for the `chain`, `pairs` and `corpus` workloads.

Every generator takes a `random.Random` and returns instances whose
expected outcome is known by construction: the sends and receives each
rank's local view must hold, and a program text that complies with the
protocol. The program under test only ever sees the generated texts and
terms; the expectations stay on the benchmark's side.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from commcheck.exprs import NAT, BinOp, Cmp, Lit, RefinedKind, Refinement, Var
from commcheck.terms import (
    Allreduce,
    Bcast,
    Choice,
    DataKind,
    End,
    Gather,
    Loop,
    Message,
    ParamBinder,
    Prefix,
    Protocol,
    ReduceOp,
    Scatter,
)

DTYPES = ("MPI_INT", "MPI_FLOAT")
OPS = {"MPI_MAX": "MAX", "MPI_MIN": "MIN", "MPI_SUM": "SUM"}
BUFFER = {"MPI_INT": "bi", "MPI_FLOAT": "bf"}
# Every generated length is at most 24, so one capacity fits all.
PROGRAM_HEADER = ["buffer bi int[64]", "buffer bf float[64]", "init"]

# Chain lengths, and the one length whose projection exceeds the
# interpreter stack today. That instance is the same for every seed.
CHAIN_LADDER = (150, 300, 450, 600)
CHAIN_LONG = 1000
CHAIN_LONG_SEED = 1000
# (ranks, sequential loops) of the disjoint-pair ensembles.
PAIRS_GRID = ((10, 3), (12, 2), (12, 3), (14, 2), (14, 3), (16, 1), (16, 2), (18, 1))
CORPUS_SIZE = 30
CORPUS_ATOMS = 8
CORPUS_SHAPE_SEED = 20131210


@dataclass
class Instance:
    """One generated protocol with its expected projection and programs.

    `views[r]` lists rank r's communication atoms in text order, written
    the way `.clt` files write them, e.g. `send(1,MPI_INT,3)`.
    """

    name: str
    num_procs: int
    views: list[list[str]]
    program: str
    text: str = ""
    protocol: Protocol | None = None
    inst: dict[str, int] = field(default_factory=dict)
    mutant: str = ""
    mutant_rank: int = -1
    mutant_line: int = 0


def _atom(name: str, *args) -> str:
    return f"{name}({','.join(str(a) for a in args)})"


def _p2p_lines(src: int, dst: int, dtype: str, length: str) -> list[str]:
    buf = BUFFER[dtype]
    return [
        f"rankif (me == {src}) {{",
        f"  send peer={dst} buf={buf} len={length}",
        "}",
        f"rankif (me == {dst}) {{",
        f"  recv peer={src} buf={buf} len={length}",
        "}",
    ]


# ---------------------------------------------------------------------------
# chain: one long straight line over three ranks
# ---------------------------------------------------------------------------


def chain(rng: random.Random, length: int) -> Instance:
    """`length` messages among three ranks.

    Any two messages among three ranks share a rank, so each message
    waits for the one before it and there is exactly one schedule. The
    program gives each rank its own straight-line block; the mutant
    redirects one statement of one rank to the third rank.
    """
    messages = []
    for _ in range(length):
        src, dst = rng.sample(range(3), 2)
        messages.append((src, dst, rng.choice(DTYPES), rng.randint(0, 8)))
    text = ["nprocs 3."]
    text += [f"message({s},{d},{t},{n})." for s, d, t, n in messages]
    text.append("end")

    views: list[list[str]] = [[], [], []]
    blocks: list[list[tuple[str, int, str, int]]] = [[], [], []]
    for src, dst, dtype, n in messages:
        views[src].append(_atom("send", dst, dtype, n))
        views[dst].append(_atom("receive", src, dtype, n))
        blocks[src].append(("send", dst, dtype, n))
        blocks[dst].append(("recv", src, dtype, n))

    mutant_rank = rng.randrange(3)
    own = blocks[mutant_rank]
    mutant_index = rng.randrange(len(own) * 3 // 4, len(own)) if own else -1

    def program(mutate: bool) -> tuple[str, int]:
        lines = list(PROGRAM_HEADER)
        mutant_line = 0
        for rank in range(3):
            lines.append(f"rankif (me == {rank}) {{")
            for i, (verb, peer, dtype, n) in enumerate(blocks[rank]):
                if mutate and rank == mutant_rank and i == mutant_index:
                    peer = 3 - rank - peer
                    mutant_line = len(lines) + 1
                lines.append(f"  {verb} peer={peer} buf={BUFFER[dtype]} len={n}")
            lines.append("}")
        lines.append("finalize")
        return "\n".join(lines) + "\n", mutant_line

    good, _ = program(False)
    bad, bad_line = program(True)
    return Instance(
        name=f"chain{length}",
        num_procs=3,
        views=views,
        program=good,
        text="\n".join(text) + "\n",
        mutant=bad,
        mutant_rank=mutant_rank,
        mutant_line=bad_line,
    )


# ---------------------------------------------------------------------------
# pairs: independent rank pairs inside sequential loops
# ---------------------------------------------------------------------------


def pairs(rng: random.Random, num_procs: int, loops: int) -> Instance:
    """`num_procs` ranks matched into disjoint pairs, and `loops`
    sequential loops whose body sends one message within every pair.

    No two messages of a body share a rank, so every order of them is a
    schedule: the interleavings grow as 2^(pairs) per loop iteration.
    """
    ranks = list(range(num_procs))
    rng.shuffle(ranks)
    matched = [(ranks[i], ranks[i + 1]) for i in range(0, num_procs, 2)]
    views: list[list[str]] = [[] for _ in range(num_procs)]
    text = [f"nprocs {num_procs}."]
    prog = list(PROGRAM_HEADER)
    for _ in range(loops):
        text.append("loop(")
        prog.append("collloop {")
        for a, b in matched:
            src, dst = (a, b) if rng.random() < 0.5 else (b, a)
            dtype, n = rng.choice(DTYPES), rng.randint(0, 8)
            text.append(f"  message({src},{dst},{dtype},{n}).")
            prog += ["  " + line for line in _p2p_lines(src, dst, dtype, str(n))]
            views[src].append(_atom("send", dst, dtype, n))
            views[dst].append(_atom("receive", src, dtype, n))
        text.append("  end).")
        prog.append("}")
    text.append("end")
    prog.append("finalize")
    return Instance(
        name=f"pairs{num_procs}x{loops}",
        num_procs=num_procs,
        views=views,
        program="\n".join(prog) + "\n",
        text="\n".join(text) + "\n",
    )


# ---------------------------------------------------------------------------
# corpus: random well-formed protocols with nested loops and choices
# ---------------------------------------------------------------------------


def corpus(rng: random.Random, index: int) -> Instance:
    """A random well-formed protocol as terms, modelled on the test
    suite's generator.

    It has 2 to 5 ranks (cycling with `index`), up to two parameters
    with refinement kinds, `CORPUS_ATOMS` atoms drawn from messages and
    all four collectives, and loops and choices nested at most two deep,
    with at most three items in a loop body or branch.

    The shape, meaning the nesting, which atoms are messages and which
    ranks each message shares with the others, comes from a fixed seed
    per `index`. The search's state count depends on nothing else, and
    with free shapes a few large entries made the cost of a 30-entry
    corpus vary twofold between seeds. `rng` relabels the ranks and
    draws everything else: parameters, lengths and their expressions,
    data kinds, collective kinds, roots and reduce ops.
    """
    shape = random.Random(CORPUS_SHAPE_SEED + index)
    num_procs = 2 + index % 4
    relabel = rng.sample(range(num_procs), num_procs)
    binders, inst = [], {}
    for i in range(rng.randint(0, 2)):
        name = f"p{i}"
        if rng.random() < 0.5:
            kind, value = NAT, rng.randint(0, 24)
        else:
            divisor = rng.randint(1, 4)
            pred = Cmp("==", BinOp("%", Var("v"), Lit(divisor)), Lit(0))
            kind, value = RefinedKind(NAT, Refinement("v", pred)), divisor * rng.randint(0, 6)
        binders.append(ParamBinder(name, kind))
        inst[name] = value

    views: list[list[str]] = [[] for _ in range(num_procs)]
    budget = [CORPUS_ATOMS]

    def length():
        roll = rng.random()
        if not inst or roll < 0.55:
            n = rng.randint(0, 8)
            return Lit(n), n, str(n)
        name = rng.choice(list(inst))
        if roll < 0.7:
            return Var(name), inst[name], name
        k = rng.randint(1, 3) if roll < 0.85 else rng.randint(1, 5)
        op = "/" if roll < 0.85 else "%"
        value = inst[name] // k if op == "/" else inst[name] % k
        return BinOp(op, Var(name), Lit(k)), value, f"{name}{op}{k}"

    def atom(prog: list[str], pad: str):
        budget[0] -= 1
        dtype = rng.choice(DTYPES)
        kind = DataKind(dtype)
        expr, n, src_text = length()
        roll = shape.random()
        if roll < 0.6:
            src, dst = (relabel[r] for r in shape.sample(range(num_procs), 2))
            views[src].append(_atom("send", dst, dtype, n))
            views[dst].append(_atom("receive", src, dtype, n))
            prog += [pad + line for line in _p2p_lines(src, dst, dtype, src_text)]
            return Message(Lit(src), Lit(dst), kind, expr)
        if roll < 0.9:
            root = rng.randrange(num_procs)
            name, cls = rng.choice((("scatter", Scatter), ("gather", Gather), ("bcast", Bcast)))
            for view in views:
                view.append(_atom(name, root, dtype, n))
            prog.append(f"{pad}{name} root={root} buf={BUFFER[dtype]} len={src_text}")
            return cls(Lit(root), kind, expr)
        op = rng.choice(list(OPS))
        for view in views:
            view.append(_atom("allreduce", dtype, n, op))
        prog.append(f"{pad}allreduce buf={BUFFER[dtype]} len={src_text} op={OPS[op]}")
        return Allreduce(kind, expr, ReduceOp(op))

    def sequence(prog: list[str], depth: int, cap: int) -> object:
        # Items are generated in text order, so the expected views come
        # out in the order the printer writes them.
        items = []
        while budget[0] > 0 and len(items) < cap and shape.random() < 0.85:
            pad = "  " * depth
            roll = shape.random()
            if depth < 2 and roll < 0.15:
                prog.append(pad + "collloop {")
                items.append(("loop", sequence(prog, depth + 1, 3)))
                prog.append(pad + "}")
            elif depth < 2 and roll < 0.3:
                prog.append(pad + "collchoice {")
                tb = sequence(prog, depth + 1, 3)
                prog.append(pad + "} else {")
                fb = sequence(prog, depth + 1, 3)
                prog.append(pad + "}")
                items.append(("choice", tb, fb))
            else:
                items.append(("atom", atom(prog, pad)))
        term = End()
        for item in reversed(items):
            if item[0] == "atom":
                term = Prefix(item[1], term)
            elif item[0] == "loop":
                term = Loop(item[1], term)
            else:
                term = Choice(item[1], item[2], term)
        return term

    prog = [f"param {b.name}" for b in binders] + list(PROGRAM_HEADER)
    body = End()
    # Top-level items are unlimited; keep drawing until the budget is spent.
    while budget[0] > 0:
        more = sequence(prog, 0, CORPUS_ATOMS)
        body = _append(body, more)
    prog.append("finalize")
    return Instance(
        name=f"corpus{index}",
        num_procs=num_procs,
        views=views,
        program="\n".join(prog) + "\n",
        protocol=Protocol(tuple(binders), num_procs, body),
        inst=inst,
    )


def _append(first, second):
    """`first` with `second` in place of its final end (spine only)."""
    spine = []
    while not isinstance(first, End):
        spine.append(first)
        first = first.cont
    for node in reversed(spine):
        match node:
            case Prefix(atom, _):
                second = Prefix(atom, second)
            case Loop(body, _):
                second = Loop(body, second)
            case Choice(tb, fb, _):
                second = Choice(tb, fb, second)
    return second
