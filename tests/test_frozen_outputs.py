"""Frozen outputs: one sha256 digest per layer over a seeded corpus.

Each layer's corpus is built here from a fixed seed. Every result, or its
error class and message, is written as canonical JSON (sorted keys, no
spaces) and hashed in chunks of CHUNK inputs; the layer digest is the
sha256 of the chunk digests. A change that alters an output on purpose
updates the digests in the same commit and names the inputs whose output
changed: on a mismatch the test reports the first chunk whose digest
differs and lists its inputs with their outputs now.
"""

from __future__ import annotations

import hashlib
import json
import random

from circle6 import (
    ToolkitError,
    build_multigraphs,
    c1_cubed,
    chern_report,
    chi_y_profile,
    classify,
    connectivity_verdict,
    dataset,
    exoticness_obstruction,
    format_rational,
    gen_family,
    jang_case,
    kustarev_sum,
    param_names,
    standard_sphere,
)

CHUNK = 100


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _outcome(fn, arg):
    try:
        return fn(arg)
    except ToolkitError as exc:
        return [type(exc).__name__, str(exc)]


def _check(layer, inputs, fn, frozen, frozen_chunks):
    outputs = [_canonical(_outcome(fn, arg)) for arg in inputs]
    chunks = [hashlib.sha256("\n".join(outputs[i:i + CHUNK]).encode()).hexdigest()
              for i in range(0, len(outputs), CHUNK)]
    digest = hashlib.sha256("".join(chunks).encode()).hexdigest()
    if digest != frozen:
        first = next((i for i, (now, was) in enumerate(zip(chunks, frozen_chunks))
                      if not now.startswith(was)), min(len(chunks), len(frozen_chunks)))
        lo = first * CHUNK
        listing = "\n".join(f"  {lo + j}: {_canonical(arg)} -> {out[:200]}" for j, (arg, out) in
                            enumerate(zip(inputs[lo:lo + CHUNK], outputs[lo:lo + CHUNK])))
        raise AssertionError(f"{layer}: digest {digest} != frozen {frozen}; first differing "
                             f"chunk {first}, inputs {lo}..{lo + CHUNK - 1}, now:\n{listing}")


# ---- classify ---------------------------------------------------------------

def _params(rng: random.Random, letter: str) -> tuple[int, ...]:
    if letter == "A":
        return tuple(rng.sample(range(1, 9), 3))
    if letter == "C":
        return (rng.randint(-6, 6),)    # a = 0 gives invalid data: an error outcome
    return tuple(rng.randint(1, 6) for _ in param_names(letter))


def _classify_corpus() -> list[list]:
    """Weight rows as [name, weights] pairs: members of all six cases
    (reversed at random, every weight doubled in about one in four),
    shuffled and renamed; random 4-point data; sums of two spheres."""
    rng = random.Random(2020)
    corpus = []
    for _ in range(400):
        for letter in "ABCDEF":
            rows = gen_family(jang_case(letter, *_params(rng, letter))).weight_rows()
            scale = rng.choice((1, -1)) * (2 if rng.random() < 0.25 else 1)
            rows = [[scale * w for w in rng.sample(ws, 3)] for ws in rows]
            rng.shuffle(rows)
            corpus.append([[f"x{k}", ws] for k, ws in zip(rng.sample(range(1000), 4), rows)])
    for _ in range(1200):
        top = rng.randint(2, 9)
        nonzero = [w for w in range(-top, top + 1) if w]
        corpus.append([[name, rng.choices(nonzero, k=3)] for name in "abcd"])
    for _ in range(400):
        a, b, c, d = (rng.randint(1, 6) for _ in range(4))
        summed = kustarev_sum(standard_sphere(a, b), None, standard_sphere(c, d), None).data
        corpus.append([[p.name, list(p.weights)] for p in summed.points])
    return corpus


def _classify_outcome(rows):
    return [[m.case.tag.value, m.case.params, m.assignment, m.reversed]
            for m in classify(dataset(3, rows)).matches]


def test_classify_outputs_are_frozen():
    _check("classify", _classify_corpus(), _classify_outcome,
           "9dc38225731d57a11f5f4123926dcb65dd53565287b25083b33eac01d037cb33",
           ["4f55c2b6c19f", "2b7b76e592ea", "3c0dbc6d9896", "114b7beae34f", "b744de3d087f",
            "71a0fe48614d", "3e93ef4ff1e9", "d21aa0cdfea9", "386b007581dc", "de2faed9ee51",
            "b51c678ac5d6", "33f9887a07b0", "3b416a08217c", "c2d4accee8fe", "c6ca01851a97",
            "1d71c42b2cde", "0d0c8926a7b6", "244b10750414", "505a445712fe", "227996a11342",
            "10ac680007d5", "3b890ea4a1f2", "b1472ddc8875", "0e28b2ef40df"]
           + ["563d1d9ede47"] * 12     # random data that no family fits
           + ["9292e2aca1e7", "1df69303c616", "d3b59393268f", "7d601831fea2"])


# ---- localization -----------------------------------------------------------

def _localization_corpus() -> list[list]:
    """[n, weight rows] pairs: random 2-, 3-, 4- and 6-point data with
    weights in +-1..6 (n = 3, and n = 2 for a few), then members of all six
    cases and their reversals."""
    rng = random.Random(2023)
    nonzero = [w for w in range(-6, 7) if w]
    corpus = []
    for i in range(1500):
        n = 2 if i % 15 == 0 else 3
        points = (2, 3, 4, 6)[i % 4]
        corpus.append([n, [[f"p{j}", rng.choices(nonzero, k=n)] for j in range(points)]])
    for _ in range(50):
        for letter in "ABCDEF":
            rows = gen_family(jang_case(letter, *_params(rng, letter))).weight_rows()
            for sign in (1, -1):
                corpus.append([3, [[f"p{j}", [sign * w for w in ws]] for j, ws in enumerate(rows)]])
    return corpus


def _localization_outcome(item):
    data = dataset(*item)
    return [_outcome(lambda d: format_rational(c1_cubed(d)), data),
            _outcome(chi_y_profile, data),
            _outcome(lambda d: chern_report(d).as_json_dict(), data)]


def test_localization_outputs_are_frozen():
    _check("localization", _localization_corpus(), _localization_outcome,
           "6e04ed8a04c2777101289f6b8f64953a5db01c820e4de3312231d463e4f6b198",
           ["c099c4ee5bc0", "f7914f62d886", "759c4ebab04b", "0d912fe0aeba", "fee58a0ca964",
            "95ce541015df", "b1dffe94bf6e", "614fdca885ba", "7e639369981a", "2368c5524fe0",
            "61055c34fed6", "a82826132bb1", "de631e526139", "00186db28bfb", "1ee8859bc9db",
            "6a40c52f40c1", "4b5fd62372ca", "de8cb8297f1e", "6570c2fb8865", "97864472ce0a",
            "7ea14f8bec12"])


# ---- pairing graphs ---------------------------------------------------------

def _sum_corpus() -> list[list]:
    """Sphere weights (a, b) of sums of 2 to 4 standard spheres, a, b in 1..3:
    every unordered pair, then random triples and quadruples."""
    spheres = [(a, b) for a in range(1, 4) for b in range(1, 4)]
    rng = random.Random(2017)
    corpus = [[s, t] for i, s in enumerate(spheres) for t in spheres[i:]]
    corpus += [rng.choices(spheres, k=3) for _ in range(40)]
    corpus += [rng.choices(spheres, k=4) for _ in range(12)]
    return corpus


def _sum_outcome(spheres):
    data = standard_sphere(*spheres[0])
    for a, b in spheres[1:]:
        data = kustarev_sum(data, None, standard_sphere(a, b), None).data
    graphs = build_multigraphs(data)
    return [graphs, connectivity_verdict(graphs).value, exoticness_obstruction(graphs)]


def test_pairing_graph_outputs_are_frozen():
    _check("pairing graphs", _sum_corpus(), _sum_outcome,
           "dc505b031b416b97f38d63d67dee64f05b4cee0819460d28caa7719e3623dea5", ["addfc70bec57"])
