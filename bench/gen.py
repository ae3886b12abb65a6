"""Seeded input generator for the gtorsion benchmark.

    python3 bench/gen.py --workload rotated --seed 3 --out inputs.json

Writes a JSON list of inputs and nothing else.  It runs in its own process
before any timing, so nothing it computes can warm the process under test.
The same seed gives the same inputs.  Every generated text is parsed back
and its structure assembled before it is written.

Workloads:
  fixtures  the five bundled examples, by name, in a seeded order;
  rotated   each fixture in nine exact frames: 0, 1 or 2 Givens planes
            (three frames of each) then a seeded even label permutation;
  extend    two flux-free inputs to the converse central extension, in
            exact frames built the same way: the SU(3) quotient of nonintG2
            (6 frames with 0 planes, 12 with 2) and the balanced G2 structure
            on S^3 x T^4 (6 frames with 1 plane, 6 with 2).

Several frames per plane count make the percentiles of a pass fall among
many inputs rather than on the border between two of them.
"""

from __future__ import annotations

import argparse
import json
import random
from fractions import Fraction

from gtorsion import registry
from gtorsion.frames import change_frame, transform_form
from gtorsion.parser import parse
from gtorsion.reduction import reduce_g2
from gtorsion.report import form_str

# (cos, sin) of the first and second Givens plane: rational, so rotations
# stay exact.
PYTHAGOREAN = [(Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13))]

# G2 structure on su(2) + R^4 with zero Lee form and strong torsion
S3XT4_G2 = """dim 7
field rational
frame e1 e2 e3 e4 e5 e6 e7
d e5 = e6^e7
d e6 = e7^e5
d e7 = e5^e6
metric identity
structure g2
phi = model
flux F = 0
"""


def rotation(n: int, axes: list[int], rng: random.Random):
    """Exact special-orthogonal matrix R = P G: Givens rotations G in the
    disjoint coordinate planes (axes[0], axes[1]), (axes[2], axes[3]), ...
    with signs drawn from ``rng``, then an even label permutation P drawn
    from ``rng``."""
    g = [[Fraction(int(a == b)) for b in range(n)] for a in range(n)]
    for k in range(len(axes) // 2):
        i, j = axes[2 * k], axes[2 * k + 1]
        c, s = PYTHAGOREAN[k]
        if rng.random() < 0.5:
            s = -s
        g[i][i], g[i][j], g[j][i], g[j][j] = c, s, -s, c
    perm = list(range(n))
    rng.shuffle(perm)
    if sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n)) % 2:
        perm[0], perm[1] = perm[1], perm[0]
    return [list(g[perm[a]]) for a in range(n)]


def rotate_text(text: str, frame_id: str, planes: int, rng: random.Random) -> str:
    """The document in the coframe f = R e, serialized as input text.

    The Givens planes depend only on ``frame_id``, so a frame's cost hardly
    depends on the seed; ``rng`` (the seed) picks the signs and the label
    permutation, which change the text but not the arithmetic's size."""
    doc = parse(text)
    frame = doc.frame()
    field, n = doc.field, frame.n
    axes = random.Random(f"gtorsion-bench/planes/{frame_id}").sample(range(n), 2 * planes)
    rot = [[field.scalar(x) for x in row] for row in rotation(n, axes, rng)]
    new = change_frame(frame, rot, new_labels=list(frame.labels), validate=False)
    identity = [[field.one() if a == b else field.zero() for b in range(n)] for a in range(n)]
    if doc.metric is not None or new.geometry.metric != identity:
        raise SystemExit("rotation inputs must carry the identity metric")
    # R is orthogonal, so the old coframe in the new one is e = R^T f
    rot_t = [[rot[b][a] for b in range(n)] for a in range(n)]
    doc.coframe = {lab: new.coframe_d[i] for i, lab in enumerate(frame.labels)}
    doc.structure_forms = {k: transform_form(v, rot_t, field) for k, v in doc.structure_forms.items()}
    if doc.flux is not None:
        doc.flux = transform_form(doc.flux, rot_t, field)
    return doc.serialize()


def su3_quotient_of_nonintG2() -> str:
    """The SU(3) structure on the Lee-dual quotient of nonintG2, with F = 0."""
    red = reduce_g2(parse(registry.input_text("nonintG2")).structure())
    qfr = red.transverse.as_lie_frame()
    labels = list(qfr.labels)
    lines = ["dim 6", "field rational", "frame " + " ".join(labels)]
    lines += [f"d {lab} = {form_str(qfr.coframe_d[i], labels)}" for i, lab in enumerate(labels)]
    lines += [
        "metric identity",
        "structure su3",
        "omega = " + form_str(red.omega, labels),
        "Omega+ = " + form_str(red.omega_plus, labels),
        "flux F = 0",
    ]
    return "\n".join(lines) + "\n"


def generate(workload: str, seed: int) -> list[dict]:
    rng = random.Random(f"gtorsion-bench/{workload}/{seed}")
    inputs = []
    if workload == "fixtures":
        for name in registry.names():
            inputs.append({"id": name, "command": "example", "fixture": name})
    elif workload == "rotated":
        for name in registry.names():
            for planes, copy in [(p, c) for p in (0, 1, 2) for c in range(3)]:
                frame_id = f"{name}/r{planes}.{copy}"
                text = rotate_text(registry.input_text(name), frame_id, planes, rng)
                inputs.append({"id": frame_id, "command": "check", "fixture": name, "text": text})
    elif workload == "extend":
        # frames per plane count; the 50th and 80th percentiles then fall
        # inside the su3q 0-plane and 2-plane groups, not between two groups
        bases = [
            ("su3q", su3_quotient_of_nonintG2(), "g2", {0: 6, 2: 12}),
            ("s3xt4", S3XT4_G2, "spin7", {1: 6, 2: 6}),
        ]
        for name, base, target, copies in bases:
            for planes, copy in [(p, c) for p, n in copies.items() for c in range(n)]:
                frame_id = f"{name}/r{planes}.{copy}"
                text = rotate_text(base, frame_id, planes, rng)
                inputs.append({"id": frame_id, "command": "extend", "target": target, "text": text})
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    rng.shuffle(inputs)
    for item in inputs:
        if "text" in item:
            parse(item["text"]).structure()  # raises on an invalid frame or structure
    return inputs


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    inputs = generate(args.workload, args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(inputs, fh, indent=1)


if __name__ == "__main__":
    main()
