"""Frozen outputs: one sha256 digest per layer over a seeded corpus.

Each layer's corpus is built here from a fixed seed. Every result, or its
error class and message, is written as canonical JSON (sorted keys, no
spaces) and hashed in chunks of CHUNK inputs; the layer digest is the
sha256 of the chunk digests. A change that alters an output on purpose
updates the digests in the same commit and names the inputs whose output
changed: on a mismatch the test reports the first chunk whose digest
differs and lists its inputs with their outputs now. A layer that also
freezes a short digest of each output (the CLI) lists only the inputs
whose digest differs, with their whole outputs now.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from pathlib import Path

from circle6 import (
    SPHERE_PROFILE,
    ToolkitError,
    build_multigraphs,
    c1_cubed,
    chern_report,
    chi_y_profile,
    classify,
    connectivity_verdict,
    dataset,
    disjoint_union,
    exoticness_obstruction,
    format_rational,
    gen_family,
    jang_case,
    kustarev_sum,
    param_names,
    save,
    standard_sphere,
)
from circle6.cli import run

CHUNK = 100


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _outcome(fn, arg):
    try:
        return fn(arg)
    except ToolkitError as exc:
        return [type(exc).__name__, str(exc)]


def _short(output: str) -> str:
    return hashlib.sha256(output.encode()).hexdigest()[:6]


def _check(layer, inputs, fn, frozen, frozen_chunks, frozen_each=None):
    outputs = [_canonical(_outcome(fn, arg)) for arg in inputs]
    chunks = [hashlib.sha256("\n".join(outputs[i:i + CHUNK]).encode()).hexdigest()
              for i in range(0, len(outputs), CHUNK)]
    digest = hashlib.sha256("".join(chunks).encode()).hexdigest()
    if digest != frozen:
        changed = [i for i, out in enumerate(outputs) if frozen_each is not None
                   and (i >= len(frozen_each) or _short(out) != frozen_each[i])]
        if changed:
            listing = "\n".join(f"  {i}: {_canonical(inputs[i])} -> {outputs[i]}" for i in changed)
            raise AssertionError(f"{layer}: digest {digest} != frozen {frozen}; "
                                 f"{len(changed)} of {len(inputs)} inputs changed, now:\n{listing}")
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
    return _graphs_outcome(data)


def _graphs_outcome(data):
    graphs = build_multigraphs(data)
    return [graphs, connectivity_verdict(graphs).value, exoticness_obstruction(graphs)]


def test_pairing_graph_outputs_are_frozen():
    _check("pairing graphs", _sum_corpus(), _sum_outcome,
           "dc505b031b416b97f38d63d67dee64f05b4cee0819460d28caa7719e3623dea5", ["addfc70bec57"])


def _graph_corpus() -> list[list]:
    """Inputs the sum corpus lacks: ten seeded sums of 5 spheres, chains of
    6, 7 and 20 copies of the (1, 1) sphere, and the overlap input, whose
    points all carry both +1 and -1, as ["spheres", weights] or
    ["points", rows]."""
    spheres = [(a, b) for a in range(1, 4) for b in range(1, 4)]
    rng = random.Random(2019)
    corpus = [["spheres", rng.choices(spheres, k=5)] for _ in range(10)]
    corpus += [["spheres", [(1, 1)] * k] for k in (6, 7, 20)]
    corpus.append(["points", [[f"a{i}", [1, -1, 2]] for i in range(50)]
                   + [[f"b{i}", [1, -1, -2]] for i in range(50)]])
    return corpus


def _graph_outcome(item):
    kind, value = item
    return _sum_outcome(value) if kind == "spheres" else _graphs_outcome(dataset(3, value))


def test_large_and_refused_pairing_graph_outputs_are_frozen():
    _check("large pairing graphs", _graph_corpus(), _graph_outcome,
           "f6e9d2d28c13920f5de0e70a07722380e9ead533da5a5c45920ee5137b550162", ["606bebc27a9c"])


# ---- CLI --------------------------------------------------------------------

def _cli_files() -> dict[str, bytes]:
    """Input files by name: valid spheres, an n = 2 dataset, a union without
    a profile, data that validation refuses, and files that do not parse."""
    def text(data):
        out = io.StringIO()
        save(data, out)
        return out.getvalue().encode()

    sphere = standard_sphere(1, 2)
    return {
        "s12.json": text(sphere),
        "s13.json": text(standard_sphere(1, 3)),
        "n2.json": text(dataset(2, [("p1", (1, 2)), ("p2", (-1, -2))], SPHERE_PROFILE)),
        "union.json": text(disjoint_union(sphere, standard_sphere(2, 3))),
        "nonintegral.json": text(dataset(3, [("p", (1, 2, 4))])),
        "zero.json": text(dataset(3, [("p1", (0, 1, -1)), ("p2", (0, -1, 1))], SPHERE_PROFILE)),
        "dup.json": text(dataset(3, [("p", (1, 2, -3)), ("p", (-1, -2, 3))])),
        "euler.json": text(dataset(3, [(p.name, p.weights) for p in
                                       gen_family(jang_case("F", 1, 1)).points], SPHERE_PROFILE)),
        "malformed.json": b'{"n": 3, "fixed_points": [{"name"',
        "schema.json": b'{"n": 3, "fixed_points": [], "extra": 1}',
        "latin1.json": b"\xff\xfe",
    }


# Every subcommand but verify-gluing, whose float depends on the platform.
# "{d}" stands for the directory of the input files; missing.json is never
# written. Later lines read what earlier ones write with --out.
_CLI_CORPUS = [
    "generate A 1 2 3",
    "generate A 1 2 3 --out {d}/A.json",
    "generate B 1 2 --out {d}/B.json",
    "generate C 2 --out {d}/C.json",
    "generate D 1 2 3 4 --out {d}/D.json",
    "generate E 1 2 --out {d}/E.json",
    "generate F 1 1 --out {d}/F.json",
    "generate C 0",
    "generate A 1 1 1",
    "generate D 1 2 3 4 --quiet",
    "validate {d}/s12.json",
    "validate {d}/F.json",
    "validate {d}/union.json",
    "validate {d}/zero.json",
    "validate {d}/dup.json",
    "validate {d}/euler.json",
    "validate {d}/zero.json --out {d}/v.json",
    "validate {d}/malformed.json",
    "validate {d}/schema.json",
    "validate {d}/latin1.json",
    "validate {d}/missing.json",
    "localize {d}/s12.json",
    "localize {d}/s12.json --quiet",
    "localize {d}/s12.json --out {d}/loc.json",
    "localize {d}/A.json",
    "localize {d}/B.json",
    "localize {d}/C.json",
    "localize {d}/D.json",
    "localize {d}/E.json",
    "localize {d}/F.json",
    "localize {d}/union.json",
    "localize {d}/n2.json",
    "localize {d}/nonintegral.json",
    "localize --raw {d}/nonintegral.json",
    "localize --raw {d}/s12.json",
    "localize {d}/zero.json",
    "localize --raw {d}/zero.json",
    "localize {d}/dup.json",
    "localize {d}/malformed.json",
    "localize {d}/schema.json",
    "localize {d}/latin1.json",
    "localize {d}/missing.json",
    "classify {d}/A.json",
    "classify {d}/B.json",
    "classify {d}/C.json",
    "classify {d}/D.json",
    "classify {d}/E.json",
    "classify {d}/F.json",
    "classify {d}/union.json",
    "classify {d}/s12.json",
    "classify {d}/n2.json",
    "classify {d}/zero.json",
    "classify {d}/euler.json",
    "classify {d}/malformed.json",
    "classify {d}/missing.json",
    "graph {d}/s12.json --dot {d}/s12.dot",
    "graph {d}/union.json",
    "graph {d}/F.json --dot {d}/F.dot",
    "graph {d}/nonintegral.json",
    "graph --cap 1 {d}/union.json",
    "graph --cap -1 {d}/s12.json",
    "graph --cap -1 {d}/zero.json",
    "graph {d}/zero.json",
    "graph {d}/dup.json --dot {d}/dup.dot",
    "graph {d}/latin1.json",
    "graph {d}/missing.json",
    "sum {d}/s12.json {d}/s13.json",
    "sum {d}/s12.json {d}/s13.json --out {d}/sum.json",
    "validate {d}/sum.json",
    "localize {d}/sum.json",
    "classify {d}/sum.json",
    "graph {d}/sum.json --dot {d}/sum.dot",
    "sum {d}/sum.json {d}/s12.json",
    "sum {d}/s12.json {d}/union.json",
    "sum {d}/s12.json {d}/n2.json",
    "sum {d}/n2.json {d}/n2.json",
    "sum {d}/s12.json {d}/zero.json",
    "sum {d}/zero.json {d}/s12.json",
    "sum {d}/dup.json {d}/s12.json",
    "sum {d}/zero.json {d}/n2.json",
    "sum {d}/s12.json {d}/malformed.json",
    "sum {d}/missing.json {d}/s12.json",
    "sweep --case F --a 1..3 --b 1..2 --assert c1_cubed=-2 --assert todd=0",
    "sweep --case C --a=-1..1 --assert euler=4",
    "sweep --case A --a 1..2 --b 1..2 --c 1..3",
    "sweep --case B --a 1..2 --b 1..2 --assert todd=0 --max-failures 1",
    "admissible 3 1",
    "admissible 4 1",
    "admissible 2 1",
    "admissible 3 7",
    "framing 1 2",
    "framing 2 3",
    "framing 1 1",
    "framing 0 1",
]


# sha256 prefix of each argv's outcome, in _CLI_CORPUS order
_CLI_EACH = [
    "c8c4a1", "e1612f", "57a69a", "594203", "cfcb61", "dd3c8d", "704032", "02a2a0", "ebe977", "f0506a",
    "b6ff30", "b6ff30", "b6ff30", "01a12e", "1ce591", "85c424", "d89b57", "4de71e", "dacd49", "db9b72",
    "b44eda", "9a4c33", "f0506a", "fa567e", "b182db", "4621d1", "b182db", "1e8877", "9b18bd", "22cbe7",
    "1e8877", "31d4e8", "74cb15", "4a567d", "cd4000", "58e4a8", "58e4a8", "555185", "4de71e", "dacd49",
    "db9b72", "b44eda", "93e079", "0fbe38", "93e079", "960d1a", "383e79", "5fa13d", "f206b1", "a28d3a",
    "9d0207", "58e4a8", "0128f8", "4de71e", "b44eda", "fa95e3", "da8ec3", "c27f1a", "75cb38", "2dd814",
    "cd283c", "cd283c", "58e4a8", "5affbc", "db9b72", "b44eda", "441aa8", "b7f582", "b6ff30", "1e8877",
    "8375bf", "24da13", "deff05", "809207", "3085cd", "5c9163", "58e4a8", "58e4a8", "809207", "3085cd",
    "4de71e", "b44eda", "42db92", "e3e763", "597a86", "df5898", "613760", "c6a6ed", "764c4d", "d6e81f",
    "b08bcc", "f72181", "b75fad", "248f2e",
]


def test_cli_outputs_are_frozen(tmp_path, capsys):
    """Exit code, stdout and the text of any --out or --dot file of each
    command line, with the input directory's path replaced by "{d}"."""
    for name, content in _cli_files().items():
        (tmp_path / name).write_bytes(content)
    d = str(tmp_path)

    def outcome(line):
        argv = line.format(d=d).split()
        code = run(argv)
        written = [Path(argv[i + 1]) for i, a in enumerate(argv) if a in ("--out", "--dot")]
        texts = [f.read_text(encoding="utf-8") if f.exists() else None for f in written]
        return [code, capsys.readouterr().out, texts]

    _check("CLI", _CLI_CORPUS, lambda line: json.loads(_canonical(outcome(line)).replace(d, "{d}")),
           "45344650d4cbcc2ae527163f192842e5d386ce10574fe936587caa71ece41c69", ["d9ad5d43992a"],
           _CLI_EACH)
