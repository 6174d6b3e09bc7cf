"""Workload generators: random trees and synthetic SIL programs.

Used by the property-based tests (soundness of the analysis against
concrete execution), the analysis-cost bench (EXT-D), the examples, and —
via the seeded *scenario* generator (:func:`generate_scenario` /
:func:`generate_scenarios`) — the batch-analysis frontend
(``python -m repro``), which feeds whole populations of random SIL
programs through the sharded suite runner.  The seeded edit scripts drive
incremental re-analysis and its edit-replay bench
(:func:`measure_edit_replay`, ``repro bench --edit-replay``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.limits import DEFAULT_LIMITS, AnalysisLimits
from ..obs.trace import span
from ..runtime.heap import TreeSpec
from ..sil import ast
from ..sil.builder import HANDLE, INT, ProgramBuilder, field, lit, name, new, not_nil
from ..sil.delta import statement_label
from ..sil.normalize import parse_and_normalize
from ..sil.parser import parse_program
from ..sil.printer import format_program
from ..sil.typecheck import TypeInfo


# ---------------------------------------------------------------------------
# Random trees
# ---------------------------------------------------------------------------


def random_tree_spec(
    rng: random.Random, max_depth: int, branch_probability: float = 0.8
) -> TreeSpec:
    """A random :data:`~repro.runtime.heap.TreeSpec` with depth at most ``max_depth``."""
    if max_depth <= 0:
        return None
    value = rng.randint(-100, 100)
    if max_depth == 1 or rng.random() > branch_probability:
        return value
    left = random_tree_spec(rng, max_depth - 1, branch_probability)
    right = random_tree_spec(rng, max_depth - 1, branch_probability)
    if left is None and right is None:
        return value
    return (value, left, right)


def perfect_tree_values(depth: int, seed: int = 1) -> List[int]:
    """The leaf values the ``bitonic_sort`` workload's ``build`` produces."""
    values: List[int] = []

    def go(d: int, s: int) -> None:
        if d <= 1:
            values.append(s * 7919 % 104729)
            return
        go(d - 1, s * 2)
        go(d - 1, s * 2 + 1)

    go(depth, seed)
    return values


# ---------------------------------------------------------------------------
# Synthetic SIL programs (for scaling studies)
# ---------------------------------------------------------------------------


def make_independent_loads_program(pairs: int) -> Tuple[ast.Program, TypeInfo]:
    """``main`` builds a tree and then performs ``pairs`` independent load pairs.

    Each pair reads the two children of a distinct node, so a precise
    analysis can fuse every pair into a parallel statement.  Used by the
    analysis-cost bench to scale program size while keeping the answer
    known.
    """
    builder = ProgramBuilder(f"independent_loads_{pairs}")
    locals_: List[Tuple[str, ast.SilType]] = [("root", HANDLE), ("cursor", HANDLE)]
    for index in range(pairs):
        locals_.append((f"a{index}", HANDLE))
        locals_.append((f"b{index}", HANDLE))
    main = builder.procedure("main", locals=locals_)
    main.assign("root", new())
    main.assign("cursor", name("root"))
    for index in range(pairs):
        # Grow the spine so every pair reads a different node.
        main.assign(("cursor", "left"), new())
        main.assign(("cursor", "right"), new())
        main.assign(f"a{index}", field("cursor", "left"))
        main.assign(f"b{index}", field("cursor", "right"))
        main.assign("cursor", field("cursor", "left"))
    return builder.build_core()


def make_handle_web_program(handles: int) -> Tuple[ast.Program, TypeInfo]:
    """``main`` keeps ``handles`` live handles into one chain — a dense path matrix.

    Used to measure how analysis cost grows with the number of live handles
    (the dimension of the path matrix).
    """
    builder = ProgramBuilder(f"handle_web_{handles}")
    locals_: List[Tuple[str, ast.SilType]] = [("root", HANDLE)]
    for index in range(handles):
        locals_.append((f"h{index}", HANDLE))
    main = builder.procedure("main", locals=locals_)
    main.assign("root", new())
    previous = "root"
    for index in range(handles):
        main.assign((previous, "left"), new())
        main.assign(f"h{index}", field(previous, "left"))
        previous = f"h{index}"
    # Touch every handle once more so none is dead.
    for index in range(handles):
        main.assign((f"h{index}", "value"), lit(index))
    return builder.build_core()


def make_recursive_walker_program(depth: int, update: bool) -> Tuple[ast.Program, TypeInfo]:
    """A generated recursive tree walker (read-only or updating), depth-parameterized."""
    builder = ProgramBuilder("generated_walker")
    main = builder.procedure("main", locals=[("root", HANDLE)])
    main.call_assign("root", "build", lit(depth))
    main.call("walk", name("root"))

    walk = builder.procedure("walk", params=[("h", HANDLE)], locals=[("l", HANDLE), ("r", HANDLE)])
    branch = walk.if_(not_nil("h"))
    if update:
        branch.then.assign(("h", "value"), ast.BinOp("+", field("h", "value"), lit(1)))
    branch.then.assign("l", field("h", "left"))
    branch.then.assign("r", field("h", "right"))
    branch.then.call("walk", name("l"))
    branch.then.call("walk", name("r"))

    _build_tree_function(builder)
    return builder.build_core()


# ---------------------------------------------------------------------------
# Seeded random SIL scenarios (the batch-analysis workload population)
# ---------------------------------------------------------------------------

#: The scenario families the random generator can produce.  ``dag`` (heavy
#: cross-linked sharing — the paper's hardest aliasing case) and ``deep``
#: (long recursion chains over deeper call graphs) deliberately push the
#: path domain into its widening bounds.
FAMILIES = ("list", "tree", "web", "mixed", "dag", "deep")

#: The families whose default-config scenarios stay inside the default
#: ``AnalysisLimits`` without ever losing path structure to the lossy
#: ``max_segments`` collapse (asserted by the generator property tests).
#: ``dag`` and ``deep`` are excluded on purpose: widening is their point.
UNTRUNCATED_FAMILIES = ("list", "tree", "web", "mixed")


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the random-scenario generator.

    ``procedures`` counts the recursive *walker* routines generated on top
    of the structure builder; ``depth`` is the structure-size constant baked
    into ``main`` (tree depth / list length); ``aliasing`` is the
    probability, per choice point, that the generator introduces handle
    overlap — aliased call targets, handle copies, cross-links — which is
    what drives interference density.  Defaults stay comfortably inside
    :data:`~repro.analysis.limits.DEFAULT_LIMITS` (no widening/truncation).
    """

    family: str = "mixed"
    procedures: int = 2
    depth: int = 4
    aliasing: float = 0.3

    def clamped(self) -> "GeneratorConfig":
        """A copy with every knob forced into its supported range."""
        return replace(
            self,
            procedures=max(1, min(4, self.procedures)),
            depth=max(1, min(8, self.depth)),
            aliasing=max(0.0, min(1.0, self.aliasing)),
        )


@dataclass(frozen=True)
class Scenario:
    """One generated SIL program, carried as *source text*.

    Source text is the canonical (and picklable) form: the sharded runner
    ships scenarios to worker processes as strings, and every consumer
    re-enters the front end via :meth:`load` — so each scenario is
    validated by the real parser, type checker and normalizer, never by a
    side channel.
    """

    name: str
    family: str
    seed: int
    config: GeneratorConfig
    source: str

    def load(self) -> Tuple[ast.Program, TypeInfo]:
        """Parse, type check and normalize the scenario's source."""
        return parse_and_normalize(self.source)


def generate_scenario(seed: int, config: Optional[GeneratorConfig] = None) -> Scenario:
    """Generate one random SIL scenario, deterministically from ``seed``.

    The program is assembled with :class:`~repro.sil.builder.ProgramBuilder`,
    rendered to concrete syntax, and immediately re-validated through the
    parser/type checker/normalizer — a generator bug surfaces here, not in a
    downstream worker.
    """
    config = (config or GeneratorConfig()).clamped()
    rng = random.Random(seed)
    build_family = _FAMILY_BUILDERS.get(config.family)
    if build_family is None:
        raise KeyError(f"unknown scenario family {config.family!r}; known: {list(FAMILIES)}")
    program_name = f"{config.family}_s{seed}"
    source = format_program(build_family(program_name, rng, config))
    parse_and_normalize(source)  # validate through the real front end
    return Scenario(
        name=program_name, family=config.family, seed=seed, config=config, source=source
    )


def generate_scenarios(
    count: int,
    base_seed: int = 0,
    config: Optional[GeneratorConfig] = None,
    families: Optional[Sequence[str]] = None,
) -> List[Scenario]:
    """A population of ``count`` scenarios, round-robin over ``families``.

    Scenario ``i`` uses seed ``base_seed + i`` and family
    ``families[i % len(families)]`` (default: all of :data:`FAMILIES`), so
    populations are reproducible and evenly mixed.
    """
    config = config or GeneratorConfig()
    chosen = tuple(families) if families else FAMILIES
    for family in chosen:
        if family not in FAMILIES:
            raise KeyError(f"unknown scenario family {family!r}; known: {list(FAMILIES)}")
    return [
        generate_scenario(base_seed + index, replace(config, family=chosen[index % len(chosen)]))
        for index in range(count)
    ]


def cross_check_scenario(scenario: Scenario, limits: AnalysisLimits = DEFAULT_LIMITS) -> bool:
    """True iff the pipeline and reference engines agree on the scenario.

    Compares the canonical encodings of
    :func:`~repro.analysis.engine.analyze_program` and the retained seed
    engine :func:`~repro.analysis.engine.analyze_program_reference` — the
    generated-population analogue of the golden tests on the named
    workloads.  Intended for small sizes (the reference engine re-analyzes
    every procedure every round).
    """
    from ..analysis import analyze_program, analyze_program_reference

    program, info = scenario.load()
    pipeline = analyze_program(program, info, limits=limits)
    reference_program, reference_info = scenario.load()
    reference = analyze_program_reference(reference_program, reference_info, limits=limits)
    return pipeline.canonical() == reference.canonical()


# -- family builders (surface ASTs; callers print + reparse) ----------------


def _build_tree_function(builder: ProgramBuilder, value_expr=None) -> None:
    """The standard recursive ``build(d)`` tree constructor."""
    build = builder.function(
        "build",
        params=[("d", INT)],
        locals=[("t", HANDLE), ("c", HANDLE)],
        return_type=HANDLE,
        return_var="t",
    )
    build.assign("t", ast.NilLit())
    grow = build.if_(ast.BinOp(">", name("d"), lit(0)))
    grow.then.assign("t", new())
    grow.then.assign(("t", "value"), value_expr if value_expr is not None else name("d"))
    grow.then.call_assign("c", "build", ast.BinOp("-", name("d"), lit(1)))
    grow.then.assign(("t", "left"), name("c"))
    grow.then.call_assign("c", "build", ast.BinOp("-", name("d"), lit(1)))
    grow.then.assign(("t", "right"), name("c"))


def _build_list_function(builder: ProgramBuilder) -> None:
    """The standard recursive ``makelist(n)`` constructor (left-linked)."""
    makelist = builder.function(
        "makelist",
        params=[("n", INT)],
        locals=[("t", HANDLE), ("rest", HANDLE)],
        return_type=HANDLE,
        return_var="t",
    )
    makelist.assign("t", ast.NilLit())
    grow = makelist.if_(ast.BinOp(">", name("n"), lit(0)))
    grow.then.assign("t", new())
    grow.then.assign(("t", "value"), name("n"))
    grow.then.call_assign("rest", "makelist", ast.BinOp("-", name("n"), lit(1)))
    grow.then.assign(("t", "left"), name("rest"))


def _add_list_walker(builder: ProgramBuilder, proc_name: str, rng: random.Random) -> None:
    """A recursive list walker: read-only or updating, chosen by the rng."""
    updating = rng.random() < 0.5
    locals_ = [("l", HANDLE)] + ([] if updating else [("v", INT)])
    walker = builder.procedure(proc_name, params=[("h", HANDLE)], locals=locals_)
    branch = walker.if_(not_nil("h"))
    if updating:
        branch.then.assign(
            ("h", "value"),
            ast.BinOp("+", field("h", "value"), lit(rng.randint(1, 9))),
        )
    else:
        branch.then.assign("v", field("h", "value"))
    branch.then.assign("l", field("h", "left"))
    branch.then.call(proc_name, name("l"))


def _add_tree_walker(builder: ProgramBuilder, proc_name: str, rng: random.Random) -> None:
    """A recursive tree walker: reader, updater, or child-swapping mutator."""
    style = rng.choice(("read", "update", "swap"))
    locals_ = [("l", HANDLE), ("r", HANDLE)] + ([("v", INT)] if style == "read" else [])
    walker = builder.procedure(proc_name, params=[("h", HANDLE)], locals=locals_)
    branch = walker.if_(not_nil("h"))
    if style == "read":
        branch.then.assign("v", field("h", "value"))
    elif style == "update":
        branch.then.assign(
            ("h", "value"),
            ast.BinOp("+", field("h", "value"), lit(rng.randint(1, 9))),
        )
    branch.then.assign("l", field("h", "left"))
    branch.then.assign("r", field("h", "right"))
    branch.then.call(proc_name, name("l"))
    branch.then.call(proc_name, name("r"))
    if style == "swap":
        branch.then.assign(("h", "left"), name("r"))
        branch.then.assign(("h", "right"), name("l"))


def _spine_walk(main, cursor: str, counter: str, link: str = "left") -> None:
    """Append ``cursor``'s while-loop spine walk to ``main`` (Figure 3 shape)."""
    loop = main.while_(not_nil(cursor))
    loop.assign(counter, ast.BinOp("+", name(counter), lit(1)))
    loop.assign(cursor, field(cursor, link))


def _list_scenario(program_name: str, rng: random.Random, config: GeneratorConfig) -> ast.Program:
    """Recursive list walkers over one shared left-linked list."""
    builder = ProgramBuilder(program_name)
    walker_names = [f"lwalk{index}" for index in range(config.procedures)]
    locals_ = [("head", HANDLE)] + [(f"c{i}", HANDLE) for i in range(len(walker_names))]
    use_spine = rng.random() < 0.7
    if use_spine:
        locals_ += [("w", HANDLE), ("steps", INT)]
    main = builder.procedure("main", locals=locals_)
    main.call_assign("head", "makelist", lit(config.depth))
    previous = "head"
    for index, walker in enumerate(walker_names):
        cursor = f"c{index}"
        if rng.random() < config.aliasing:
            main.assign(cursor, name(previous))  # aliased with the previous target
        else:
            main.assign(cursor, field(previous, "left"))  # strictly below it
        main.call(walker, name(cursor))
        previous = cursor
    if use_spine:
        main.assign("w", name("head"))
        main.assign("steps", lit(0))
        _spine_walk(main, "w", "steps")
    for walker in walker_names:
        _add_list_walker(builder, walker, rng)
    _build_list_function(builder)
    return builder.build()


def _tree_scenario(program_name: str, rng: random.Random, config: GeneratorConfig) -> ast.Program:
    """Recursive tree walkers over one shared binary tree."""
    builder = ProgramBuilder(program_name)
    walker_names = [f"twalk{index}" for index in range(config.procedures)]
    main = builder.procedure(
        "main", locals=[("root", HANDLE), ("l", HANDLE), ("r", HANDLE)]
    )
    main.call_assign("root", "build", lit(config.depth))
    main.assign("l", field("root", "left"))
    main.assign("r", field("root", "right"))
    targets = ("l", "r")
    for index, walker in enumerate(walker_names):
        if rng.random() < config.aliasing:
            # Overlapping pair: the whole tree, then one of its subtrees.
            main.call(walker, name("root"))
            main.call(walker, name(rng.choice(targets)))
        else:
            # Disjoint pair: the two sibling subtrees.
            main.call(walker, name("l"))
            main.call(walker, name("r"))
    for walker in walker_names:
        _add_tree_walker(builder, walker, rng)
    _build_tree_function(builder)
    return builder.build()


def _web_scenario(program_name: str, rng: random.Random, config: GeneratorConfig) -> ast.Program:
    """A straight-line handle web: a chain of live handles with random overlap."""
    builder = ProgramBuilder(program_name)
    chain = max(3, min(6, config.depth + 1))
    locals_ = [("root", HANDLE)] + [(f"h{i}", HANDLE) for i in range(chain)]
    main = builder.procedure("main", locals=locals_)
    main.assign("root", new())
    previous = "root"
    grown: List[str] = ["root"]
    for index in range(chain):
        handle = f"h{index}"
        if len(grown) > 1 and rng.random() < config.aliasing:
            main.assign(handle, name(rng.choice(grown)))  # direct alias
        else:
            main.assign((previous, "left"), new())
            main.assign(handle, field(previous, "left"))
            previous = handle
        grown.append(handle)
    for index in range(chain):
        if rng.random() < 0.5:
            main.assign((f"h{index}", "value"), lit(rng.randint(-99, 99)))
    if rng.random() < config.aliasing:
        # One destructive cross-link: introduces (possible) sharing.
        first, second = rng.sample(grown[1:], 2)
        main.assign((first, "right"), name(second))
    return builder.build()


def _mixed_scenario(program_name: str, rng: random.Random, config: GeneratorConfig) -> ast.Program:
    """Tree build + walkers + a spine walk + web-style handle grabs."""
    builder = ProgramBuilder(program_name)
    walker_names = [f"mwalk{index}" for index in range(max(1, config.procedures - 1))]
    main = builder.procedure(
        "main",
        locals=[
            ("root", HANDLE),
            ("l", HANDLE),
            ("lr", HANDLE),
            ("w", HANDLE),
            ("steps", INT),
        ],
    )
    main.call_assign("root", "build", lit(config.depth))
    main.assign("l", field("root", "left"))
    main.assign("lr", field("l", "right"))
    for walker in walker_names:
        if rng.random() < config.aliasing:
            main.call(walker, name("root"))
            main.call(walker, name("l"))
        else:
            main.call(walker, name("l"))
            main.call(walker, name("lr"))
    main.assign("w", name("root"))
    main.assign("steps", lit(0))
    _spine_walk(main, "w", "steps", link=rng.choice(("left", "right")))
    for walker in walker_names:
        _add_tree_walker(builder, walker, rng)
    _build_tree_function(builder)
    return builder.build()


def _dag_scenario(program_name: str, rng: random.Random, config: GeneratorConfig) -> ast.Program:
    """Heavy cross-linked sharing: a tree whose subtrees get linked under each
    other — the paper's hardest aliasing case (the structure becomes a DAG).

    ``main`` grabs all four grandchild handles, cross-links several sibling
    subtrees (always "later" under "earlier" in a fixed order, so the result
    is acyclic and executable), and then runs walkers over overlapping
    regions.  The composite paths the destructive links create drive
    path-matrix entries past ``max_paths_per_entry`` — the path-set-collapse
    widening — and every link raises the expected sharing diagnostics.
    """
    builder = ProgramBuilder(program_name)
    walker_names = [f"gwalk{index}" for index in range(config.procedures)]
    grabs = ["l", "r", "ll", "lr", "rl", "rr"]
    main = builder.procedure(
        "main", locals=[("root", HANDLE)] + [(grab, HANDLE) for grab in grabs]
    )
    # Depth at least 3 so every grandchild grab is non-nil at runtime.
    main.call_assign("root", "build", lit(max(3, config.depth)))
    main.assign("l", field("root", "left"))
    main.assign("r", field("root", "right"))
    main.assign("ll", field("l", "left"))
    main.assign("lr", field("l", "right"))
    main.assign("rl", field("r", "left"))
    main.assign("rr", field("r", "right"))

    # Cross-link sibling subtrees below one another.  Linking only X.f := Y
    # with X before Y in `order` keeps the structure acyclic (Y never links
    # back under X), so the program still executes end to end.
    order = ["ll", "lr", "rl", "rr"]
    links = [("ll", "right", "lr"), ("lr", "left", "rl"), ("rl", "right", "rr")]
    for upper, link, lower in links:
        if rng.random() < max(0.5, config.aliasing):
            main.assign((upper, link), name(lower))
    # One guaranteed long-range share plus an optional aliased handle copy.
    main.assign(("ll", "left"), name("rr"))
    if rng.random() < config.aliasing:
        first, second = rng.sample(order, 2)
        main.assign(first, name(second))

    # Walkers over overlapping regions (an ancestor and one of its shared
    # descendants), so the interference analysis sees the sharing.
    for walker in walker_names:
        upper = rng.choice(("root", "l", "r"))
        lower = rng.choice(order)
        main.call(walker, name(upper))
        main.call(walker, name(lower))
    for walker in walker_names:
        _add_tree_walker(builder, walker, rng)
    _build_tree_function(builder)
    return builder.build()


def _deep_scenario(program_name: str, rng: random.Random, config: GeneratorConfig) -> ast.Program:
    """Long recursion chains over a deeper call graph.

    ``main`` enters a chain of procedures ``step0 → step1 → ...`` that each
    descend one link before calling the next, ending in a recursive walker
    that descends *two alternating* links (``h.left.right``) per recursive
    call.  The alternation makes the recursive entry matrix accumulate
    ``L1R1L1R1...`` paths whose segment count outgrows ``max_segments`` —
    the segment-collapse widening — while the exact repetition counts
    outgrow ``max_exact_count`` on the straight-link chain.
    """
    builder = ProgramBuilder(program_name)
    chain = max(2, min(6, config.procedures + config.depth // 2))
    main = builder.procedure("main", locals=[("root", HANDLE)])
    # Depth at least 4 so the two-link recursive descent makes progress.
    main.call_assign("root", "build", lit(max(4, config.depth)))
    main.call("step0", name("root"))

    # The call-graph chain: step{i} descends one (alternating) link.
    for index in range(chain - 1):
        step = builder.procedure(
            f"step{index}", params=[("h", HANDLE)], locals=[("n", HANDLE)]
        )
        branch = step.if_(not_nil("h"))
        link = "left" if index % 2 == 0 else "right"
        branch.then.assign("n", field("h", link))
        branch.then.call(f"step{index + 1}", name("n"))

    # The chain's last link: a deep recursive walker descending two
    # alternating links per call (read-only or updating, chosen by the rng).
    updating = rng.random() < 0.5
    locals_ = [("l", HANDLE), ("lr", HANDLE)] + ([] if updating else [("v", INT)])
    walker = builder.procedure(
        f"step{chain - 1}", params=[("h", HANDLE)], locals=locals_
    )
    branch = walker.if_(not_nil("h"))
    if updating:
        branch.then.assign(
            ("h", "value"),
            ast.BinOp("+", field("h", "value"), lit(rng.randint(1, 9))),
        )
    else:
        branch.then.assign("v", field("h", "value"))
    branch.then.assign("l", field("h", "left"))
    inner = branch.then.if_(not_nil("l"))
    inner.then.assign("lr", field("l", "right"))
    inner.then.call(f"step{chain - 1}", name("lr"))
    _build_tree_function(builder)
    return builder.build()


_FAMILY_BUILDERS = {
    "list": _list_scenario,
    "tree": _tree_scenario,
    "web": _web_scenario,
    "mixed": _mixed_scenario,
    "dag": _dag_scenario,
    "deep": _deep_scenario,
}


# ---------------------------------------------------------------------------
# Seeded edit scripts (the incremental re-analysis workload)
# ---------------------------------------------------------------------------

#: Edit kinds the script generator can produce.  ``insert`` adds a neutral
#: self-copy (``x := x``) — a semantic no-op, so dirty-seeded re-analysis of
#: the edited program must reproduce the old result bit-identically on the
#: untouched procedures.  The other kinds genuinely change the program.
EDIT_KINDS = ("insert", "delete", "swap", "relink", "add_call")

#: Random draws per step before falling back to a guaranteed neutral insert.
_MAX_EDIT_ATTEMPTS = 24


@dataclass(frozen=True)
class EditStep:
    """One concrete edit, replayable without the generator's rng.

    ``position`` indexes the *top-level* statement list of the target
    procedure's body **at the time the step applies** (steps of a script
    compose in order, each seeing the previous step's output).  ``payload``
    carries the kind-specific operands: the variable name for ``insert``,
    ``(callee, argument)`` for ``add_call``, nothing for the rest.
    """

    kind: str
    procedure: str
    position: int
    payload: Tuple[str, ...] = ()

    def describe(self) -> str:
        detail = f"({', '.join(self.payload)})" if self.payload else ""
        return f"{self.kind}{detail} @ {self.procedure}[{self.position}]"

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "procedure": self.procedure,
            "position": self.position,
            "payload": list(self.payload),
        }


@dataclass(frozen=True)
class EditScript:
    """A deterministic sequence of :class:`EditStep`\\ s over one program."""

    seed: int
    steps: Tuple[EditStep, ...]

    def __len__(self) -> int:
        return len(self.steps)

    def as_dict(self) -> Dict[str, object]:
        return {"seed": self.seed, "steps": [step.as_dict() for step in self.steps]}


@dataclass(frozen=True)
class EditedPair:
    """An ``(old, new)`` program-source pair related by an edit script."""

    old_source: str
    new_source: str
    script: EditScript


def _apply_step(program: ast.Program, step: EditStep) -> None:
    """Apply one step to a (surface) program in place."""
    proc = program.callable(step.procedure)
    body = proc.body.stmts
    if step.kind == "insert":
        (var,) = step.payload
        body.insert(step.position, ast.Assign(lhs=ast.Name(var), rhs=ast.Name(var)))
    elif step.kind == "delete":
        del body[step.position]
    elif step.kind == "swap":
        body[step.position], body[step.position + 1] = (
            body[step.position + 1],
            body[step.position],
        )
    elif step.kind == "relink":
        if not _flip_first_link(body[step.position]):
            raise ValueError(f"edit step {step.describe()} found no link field to flip")
    elif step.kind == "add_call":
        callee, var = step.payload
        body.insert(step.position, ast.ProcCall(name=callee, args=[ast.Name(var)]))
    else:
        raise ValueError(f"unknown edit kind {step.kind!r}; known: {list(EDIT_KINDS)}")


def _flip_first_link(stmt: ast.Stmt) -> bool:
    """Flip the first ``left``/``right`` field access in ``stmt``; False if none."""
    for expr in ast.stmt_expressions(stmt):
        for sub in ast.walk_expr(expr):
            if isinstance(sub, ast.FieldAccess) and sub.field_name.is_link:
                sub.field_name = (
                    ast.Field.RIGHT if sub.field_name is ast.Field.LEFT else ast.Field.LEFT
                )
                return True
    return False


def _handle_vars(proc: ast.Procedure) -> List[str]:
    return [d.name for d in list(proc.params) + list(proc.locals) if d.type is ast.SilType.HANDLE]


def _propose_step(
    program: ast.Program, proc_name: str, kind: str, rng: random.Random
) -> Optional[EditStep]:
    """A candidate step of ``kind`` against ``proc_name``, or None if inapplicable."""
    proc = program.callable(proc_name)
    body = proc.body.stmts
    if kind == "insert":
        handles = _handle_vars(proc)
        pool = handles or [d.name for d in list(proc.params) + list(proc.locals)]
        if not pool:
            return None
        var = rng.choice(pool)
        return EditStep("insert", proc_name, rng.randint(0, len(body)), (var,))
    if kind == "delete":
        if len(body) < 2:
            return None
        return EditStep("delete", proc_name, rng.randrange(len(body)))
    if kind == "swap":
        spots = [
            p
            for p in range(len(body) - 1)
            if statement_label(body[p]) != statement_label(body[p + 1])
        ]
        if not spots:
            return None
        return EditStep("swap", proc_name, rng.choice(spots))
    if kind == "relink":
        spots = [
            p
            for p, stmt in enumerate(body)
            if any(
                isinstance(sub, ast.FieldAccess) and sub.field_name.is_link
                for expr in ast.stmt_expressions(stmt)
                for sub in ast.walk_expr(expr)
            )
        ]
        if not spots:
            return None
        return EditStep("relink", proc_name, rng.choice(spots))
    if kind == "add_call":
        callees = [
            p.name
            for p in program.procedures
            if p.name != "main" and len(p.params) == 1 and p.params[0].type is ast.SilType.HANDLE
        ]
        handles = _handle_vars(proc)
        if not callees or not handles:
            return None
        return EditStep(
            "add_call",
            proc_name,
            rng.randint(0, len(body)),
            (rng.choice(callees), rng.choice(handles)),
        )
    raise KeyError(f"unknown edit kind {kind!r}; known: {list(EDIT_KINDS)}")


def _step_validates(program: ast.Program, step: EditStep) -> bool:
    """True iff the edited program survives the full front end (print + reparse)."""
    trial = ast.clone_program(program)
    try:
        _apply_step(trial, step)
        parse_and_normalize(format_program(trial))
    except Exception:  # noqa: BLE001 - any front-end rejection voids the step
        return False
    return True


def _draw_step(
    program: ast.Program,
    rng: random.Random,
    allowed: Sequence[str],
    target_procedure: Optional[str],
) -> EditStep:
    """One validated step; bounded random draws, then a neutral-insert fallback."""
    names = [proc.name for proc in program.all_callables]
    for _ in range(_MAX_EDIT_ATTEMPTS):
        kind = allowed[rng.randrange(len(allowed))]
        proc_name = target_procedure if target_procedure is not None else rng.choice(names)
        candidate = _propose_step(program, proc_name, kind, rng)
        if candidate is not None and _step_validates(program, candidate):
            return candidate
    fallback = _propose_step(program, target_procedure or "main", "insert", rng)
    if fallback is not None and _step_validates(program, fallback):
        return fallback
    raise ValueError(
        f"could not synthesize a valid edit step for program {program.name!r} "
        f"(kinds {list(allowed)}, target {target_procedure!r})"
    )


def generate_edit_script(
    source: str,
    seed: int,
    edits: int = 1,
    kinds: Optional[Sequence[str]] = None,
    target_procedure: Optional[str] = None,
) -> EditScript:
    """A deterministic edit script of ``edits`` steps over ``source``.

    Each step is drawn at random (seeded), applied to a working copy, and
    **validated through the real front end** — print, reparse, type check,
    normalize — before it is accepted; a step the front end rejects is
    redrawn, and after :data:`_MAX_EDIT_ATTEMPTS` failed draws the generator
    falls back to a guaranteed-valid neutral insert.  Restrict ``kinds``
    (e.g. ``("insert",)``) and pin ``target_procedure`` for the fully
    deterministic single-procedure edits CI replays.
    """
    allowed = tuple(kinds) if kinds else EDIT_KINDS
    for kind in allowed:
        if kind not in EDIT_KINDS:
            raise KeyError(f"unknown edit kind {kind!r}; known: {list(EDIT_KINDS)}")
    program = parse_program(source)
    if target_procedure is not None:
        program.callable(target_procedure)  # raise early on a bad target
    rng = random.Random(seed)
    steps: List[EditStep] = []
    for _ in range(max(1, int(edits))):
        step = _draw_step(program, rng, allowed, target_procedure)
        _apply_step(program, step)
        steps.append(step)
    return EditScript(seed=seed, steps=tuple(steps))


def apply_edit_script(source: str, script: EditScript) -> str:
    """Replay ``script`` over ``source``; returns the validated edited source."""
    program = parse_program(source)
    for step in script.steps:
        _apply_step(program, step)
    new_source = format_program(program)
    parse_and_normalize(new_source)  # validate through the real front end
    return new_source


def generate_edited_pair(
    source: str,
    seed: int,
    edits: int = 1,
    kinds: Optional[Sequence[str]] = None,
    target_procedure: Optional[str] = None,
) -> EditedPair:
    """Generate a script over ``source`` and return the ``(old, new)`` pair."""
    script = generate_edit_script(
        source, seed, edits=edits, kinds=kinds, target_procedure=target_procedure
    )
    return EditedPair(
        old_source=source, new_source=apply_edit_script(source, script), script=script
    )


def make_edit_bench_scenario(procedures: int, seed: int = 0, depth: int = 4) -> Scenario:
    """A program whose *size* scales independently of any edit's blast radius.

    ``main`` builds one list and calls ``procedures`` distinct recursive
    walkers on it.  The walkers are mutually independent, so an edit inside
    walker ``k`` dirties only ``{walk<k>, main}`` no matter how many other
    walkers exist — exactly the shape the edit-replay bench needs to show
    re-analysis cost scaling with edit size rather than program size.
    Unlike the family generators this takes no :class:`GeneratorConfig`
    clamp: ``procedures`` may be arbitrarily large.
    """
    procedures = max(1, int(procedures))
    rng = random.Random(seed)
    program_name = f"editbench_p{procedures}_s{seed}"
    builder = ProgramBuilder(program_name)
    walker_names = [f"walk{index}" for index in range(procedures)]
    main = builder.procedure("main", locals=[("head", HANDLE)])
    main.call_assign("head", "makelist", lit(depth))
    for walker in walker_names:
        main.call(walker, name("head"))
    for walker in walker_names:
        _add_list_walker(builder, walker, rng)
    _build_list_function(builder)
    source = format_program(builder.build())
    parse_and_normalize(source)  # validate through the real front end
    return Scenario(
        name=program_name,
        family="editbench",
        seed=seed,
        config=GeneratorConfig(family="list", procedures=procedures, depth=depth),
        source=source,
    )


#: Default program sizes (walker counts) for the edit-replay bench.
DEFAULT_EDIT_SIZES = (4, 8, 16)

#: Default edit-script lengths for the edit-replay bench.
DEFAULT_EDIT_COUNTS = (1, 2, 4)


def measure_edit_replay(
    sizes: Sequence[int] = DEFAULT_EDIT_SIZES,
    edit_counts: Sequence[int] = DEFAULT_EDIT_COUNTS,
    seed: int = 0,
    limits: AnalysisLimits = DEFAULT_LIMITS,
    kinds: Sequence[str] = ("insert",),
) -> Dict[str, object]:
    """The edit-replay bench: re-analysis work vs. edit size vs. program size.

    For every program size ``n`` (the walker count of
    :func:`make_edit_bench_scenario`) and every edit-script length ``k``,
    count the statements visited and the worklist pops of a **cold** solve
    and of a dirty-seeded **warm** re-analysis of an
    :class:`~repro.analysis.reanalysis.IncrementalSession` after a seeded
    ``k``-step edit script.  Every script edits ``walk0``, which every size
    has, so the size axis holds the edited procedure fixed.  Along it
    (fixed ``k``) the cold counts grow with ``n`` while the warm counts
    should not — the re-analysis cost scales with the edit, not the
    program — and the ``scaling`` summary states the ratios of both.
    Every warm cell also reports the reuse counters and verifies the warm
    digest against a cold solve of the edited program.  The report holds
    counts only, so it is the same on every run and every host.
    """
    from ..analysis.reanalysis import IncrementalSession

    sizes = tuple(sorted(set(int(n) for n in sizes)))
    edit_counts = tuple(sorted(set(int(k) for k in edit_counts)))
    cells: Dict[str, Dict[str, object]] = {}
    with span("bench.edit_replay", {"sizes": len(sizes), "edit_counts": len(edit_counts)}):
        for size in sizes:
            scenario = make_edit_bench_scenario(size, seed=seed)
            old_program, old_info = parse_and_normalize(scenario.source)
            for count in edit_counts:
                pair = generate_edited_pair(
                    scenario.source,
                    seed + count,
                    edits=count,
                    kinds=kinds,
                    target_procedure="walk0",
                )
                new_program, new_info = parse_and_normalize(pair.new_source)
                session = IncrementalSession(limits=limits)
                session.analyze(old_program, old_info)
                cold_visited = session.stats.statements_visited
                cold_pops = session.stats.worklist_pops
                report = session.reanalyze(new_program, new_info, verify=True)
                session.close()
                cells[f"n{size}_k{count}"] = {
                    "size": size,
                    "edits": count,
                    "cold_statements_visited": cold_visited,
                    "warm_statements_visited": report.stats_delta["statements_visited"],
                    "cold_worklist_pops": cold_pops,
                    "warm_worklist_pops": report.stats_delta["worklist_pops"],
                    "summaries_reused": report.summaries_reused,
                    "procedures_reanalyzed": len(report.procedures_reanalyzed),
                    "procedures_total": len(new_program.all_callables),
                    "dirty_seed_size": report.dirty_seed_size,
                    "verified": bool(report.verified),
                    "script": pair.script.as_dict(),
                }
    base_k, last_k = edit_counts[0], edit_counts[-1]
    small = cells[f"n{sizes[0]}_k{base_k}"]
    large = cells[f"n{sizes[-1]}_k{base_k}"]
    longest = cells[f"n{sizes[-1]}_k{last_k}"]
    ratios = {
        f"{name}_ratio": _ratio(large[field], small[field])
        for name, field in (
            ("cold_size", "cold_statements_visited"),
            ("warm_size", "warm_statements_visited"),
            ("cold_pops_size", "cold_worklist_pops"),
            ("warm_pops_size", "warm_worklist_pops"),
        )
    }
    return {
        "sizes": list(sizes),
        "edit_counts": list(edit_counts),
        "seed": seed,
        "kinds": list(kinds),
        "cells": cells,
        "scaling": {
            # Size axis at the smallest edit count: cold grows, warm should
            # not, in statements visited and in worklist pops alike.
            **ratios,
            # Edit axis at the largest size: warm grows with the script length.
            "warm_edit_ratio": _ratio(
                longest["warm_statements_visited"], large["warm_statements_visited"]
            ),
            "scales_with_edit_not_program": all(
                ratios[cold] is not None
                and ratios[warm] is not None
                and ratios[warm] < ratios[cold]
                for cold, warm in (
                    ("cold_size_ratio", "warm_size_ratio"),
                    ("cold_pops_size_ratio", "warm_pops_size_ratio"),
                )
            ),
        },
    }


def _ratio(numerator: int, denominator: int) -> Optional[float]:
    return round(numerator / denominator, 4) if denominator else None


def format_edit_replay(report: Dict[str, object]) -> str:
    """Human-readable rendering of a :func:`measure_edit_replay` result."""
    lines = [
        f"{'cell':12s} {'cold-stmts':>10s} {'warm-stmts':>10s} {'cold-pops':>9s} "
        f"{'warm-pops':>9s} {'reused':>7s} {'re-an':>6s} {'total':>6s} {'ok':>3s}"
    ]
    for key, cell in report["cells"].items():
        lines.append(
            f"{key:12s} {cell['cold_statements_visited']:>10} "
            f"{cell['warm_statements_visited']:>10} {cell['cold_worklist_pops']:>9} "
            f"{cell['warm_worklist_pops']:>9} {cell['summaries_reused']:>7} "
            f"{cell['procedures_reanalyzed']:>6} {cell['procedures_total']:>6} "
            f"{'yes' if cell['verified'] else 'NO':>3s}"
        )
    scaling = report["scaling"]
    lines.append(
        f"size-axis ratios: statements (cold {scaling['cold_size_ratio']} vs warm "
        f"{scaling['warm_size_ratio']}), pops (cold {scaling['cold_pops_size_ratio']} "
        f"vs warm {scaling['warm_pops_size_ratio']}); edit-axis warm ratio "
        f"{scaling['warm_edit_ratio']} -> "
        + (
            "cost scales with edit size"
            if scaling["scales_with_edit_not_program"]
            else "NO separation"
        )
    )
    return "\n".join(lines)
