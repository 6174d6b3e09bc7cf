"""Seeded inputs for the three workloads.

Everything here is a pure function of the seed: the same seed yields
byte-identical corpora and edit streams, and :func:`digest` of them is
recorded in every result so two runs can show they saw the same inputs.
The system under test receives only the generated programs.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, Tuple

#: The largest shape the scenario generator accepts (it clamps beyond).
LARGEST_SHAPE = {"procedures": 4, "depth": 8}
#: Walker counts of batch-cold's size tier.  At 256 walkers one program
#: makes 5124 transfers and overflows the 4096-entry in-memory cache.  The
#: tier is the same for every seed: its programs dominate a pass, and a
#: fixed ladder keeps runs with different seeds comparable.
SIZE_TIER = (16, 32, 64, 128, 256)
#: Generated programs per family in batch-cold's mix.
MIX_PER_FAMILY = 16
#: Walkers in the program edit-serve edits.
EDIT_WALKERS = 16
#: Versions in the edit stream; replay turns back at either end.
EDIT_VERSIONS = 180
#: Generated programs in oneshot-cli's corpus, and how many of them the
#: set-up pass stores; the rest are unseen until a timed call draws them.
CLI_GENERATED = 30
CLI_STORED = 24
#: Programs per oneshot-cli call: named workloads, then generated ones.
CLI_NAMED_PER_CALL = 1
CLI_GENERATED_PER_CALL = 2
#: Calls drawn per run; a run stops at its deadline, well before the end.
CLI_CALLS = 400


def digest(document) -> str:
    """SHA-256 of a JSON document in canonical form."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _seeds(seed: int, count: int) -> List[int]:
    rng = random.Random(seed)
    return [rng.randrange(1 << 30) for _ in range(count)]


def batch_items(seed: int) -> List[Tuple[str, str]]:
    """batch-cold's ``(name, source)`` items.

    The ten named workloads, a seeded mix of every generator family at its
    largest shape, and the size tier of edit-bench programs, in that order
    (the runner deals items to shards round-robin).
    """
    from repro.workloads import (
        FAMILIES,
        WORKLOADS,
        GeneratorConfig,
        generate_scenarios,
        make_edit_bench_scenario,
        source,
    )

    (mix_seed,) = _seeds(seed, 1)
    items = [(name, source(name)) for name in WORKLOADS]
    mix = generate_scenarios(
        MIX_PER_FAMILY * len(FAMILIES), base_seed=mix_seed,
        config=GeneratorConfig(**LARGEST_SHAPE),
    )
    items += [(scenario.name, scenario.source) for scenario in mix]
    for walkers in SIZE_TIER:
        scenario = make_edit_bench_scenario(walkers)
        items.append((scenario.name, scenario.source))
    return items


def edit_stream(seed: int) -> List[str]:
    """edit-serve's program versions: each one edit step from the last.

    The steps cycle through every edit kind in a seeded order.
    """
    from repro.workloads import (
        EDIT_KINDS,
        apply_edit_script,
        generate_edit_script,
        make_edit_bench_scenario,
    )

    program_seed, step_seed = _seeds(seed, 2)
    rng = random.Random(step_seed)
    versions = [make_edit_bench_scenario(EDIT_WALKERS, seed=program_seed).source]
    kinds: List[str] = []
    while len(versions) < EDIT_VERSIONS:
        if not kinds:
            kinds = list(EDIT_KINDS)
            rng.shuffle(kinds)
        script = generate_edit_script(
            versions[-1], seed=rng.randrange(1 << 30), edits=1, kinds=(kinds.pop(),)
        )
        versions.append(apply_edit_script(versions[-1], script))
    return versions


def replay_pair(versions: List[str], index: int) -> Tuple[int, int]:
    """Request ``index`` of the edit loop: ``(old, new)`` version numbers.

    The loop walks the stream forward, then back (undo), and so on, so a
    run longer than the stream still sends one-step edits.
    """
    span = len(versions) - 1
    lap, step = divmod(index, span)
    if lap % 2 == 0:
        return step, step + 1
    return span - step, span - step - 1


def cli_plan(seed: int) -> Dict:
    """oneshot-cli's corpus, and the ``analyze`` arguments of set-up and calls.

    Generated program ``i`` is family ``FAMILIES[i % 6]`` with seed
    ``base + i``, the program ``analyze --generated`` makes at position
    ``i`` of a population seeded ``base``.  A call draws a run of
    consecutive programs ``[i, i + n)`` and names it on its command line as
    ``--family <their families> --generated n --seed base+i``.
    """
    from repro.workloads import FAMILIES, WORKLOADS

    base, draw_seed = _seeds(seed, 2)
    base %= 1 << 20
    shape = ["--procedures", str(LARGEST_SHAPE["procedures"]),
             "--depth", str(LARGEST_SHAPE["depth"])]
    setup = [*WORKLOADS, "--census", "--generated", str(CLI_STORED),
             "--seed", str(base), *shape]
    rng = random.Random(draw_seed)
    names = list(WORKLOADS)
    calls = []
    for _ in range(CLI_CALLS):
        start = rng.randrange(CLI_GENERATED - CLI_GENERATED_PER_CALL + 1)
        families = [FAMILIES[(start + k) % len(FAMILIES)]
                    for k in range(CLI_GENERATED_PER_CALL)]
        named = rng.sample(names, CLI_NAMED_PER_CALL)
        calls.append([*named, "--census", "--family", ",".join(families),
                      "--generated", str(CLI_GENERATED_PER_CALL),
                      "--seed", str(base + start), *shape])
    programs = {name: {"named": name} for name in WORKLOADS}
    for index in range(CLI_GENERATED):
        family = FAMILIES[index % len(FAMILIES)]
        programs[f"{family}_s{base + index}"] = {"family": family, "seed": base + index}
    return {"setup": setup, "calls": calls, "programs": programs}


def cli_program_source(entry: Dict) -> str:
    """Source text of one oneshot-cli corpus program (see :func:`cli_plan`)."""
    from repro.workloads import GeneratorConfig, generate_scenario, source

    if "named" in entry:
        return source(entry["named"], depth=LARGEST_SHAPE["depth"])
    config = GeneratorConfig(family=entry["family"], **LARGEST_SHAPE)
    return generate_scenario(entry["seed"], config).source
