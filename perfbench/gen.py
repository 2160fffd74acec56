"""Deterministic inputs for the benchmark: problem files and the op plan.

Every table is drawn from the baseline distribution: integers in [-10, 10],
with 10% of entries -inf and 10% +inf.  Couples, and the tables the
transform outputs must hold, come from the float oracle, not from the
package, so the program under test receives only finished files.  The same
seed gives byte-identical files and the same plan.
"""

import json

import numpy as np

import oracle

INF_SHARE = 0.1
GRID = (-10, 10)

# |U| = |X| = |Y| per workload, at full size and in the tiny smoke/trace pass.
SIZES = {"audit": 128, "reject": 128, "transform": 256}
TINY_SIZE = 8
FUZZ_MAX_SET_SIZE = 5
FUZZ_CHUNK = {False: 100, True: 10}
FUZZ_CHUNKS = 400
TRANSFORM_PAIRS = 2
# Reject perturbations sit in the middle rows of eight row strata, since
# the items stop at the perturbed row and the row sets most of an op's
# cost.  A round is a pair of strata placed symmetrically about the middle
# row, so the latency median stays near the middle whatever the number of
# rounds a run makes.
REJECT_ROUNDS = ((0, 4), (2, 6), (1, 5), (3, 7))
SWEEP_SIZES = (4, 16, 64, 128)
AUDIT_SWEEP_SIZES = (4, 16, 64)


def random_table(rng, rows, cols):
    roll = rng.random((rows, cols))
    table = rng.integers(GRID[0], GRID[1] + 1, (rows, cols)).astype(float)
    table[roll < INF_SHARE] = -np.inf
    table[(roll >= INF_SHARE) & (roll < 2 * INF_SHARE)] = np.inf
    return table


def _entry(v):
    if v == np.inf:
        return "inf"
    if v == -np.inf:
        return "-inf"
    return float(v)


def write_problem(path, coupling, rockafellian=None, lagrangian=None, comment=""):
    n_u = (rockafellian if rockafellian is not None else lagrangian).shape[0]
    n_x, n_y = coupling.shape
    doc = {
        "comment": comment,
        "sets": {
            "U": [f"u{i}" for i in range(n_u)],
            "X": [f"x{i}" for i in range(n_x)],
            "Y": [f"y{i}" for i in range(n_y)],
        },
        "coupling": [[_entry(v) for v in row] for row in coupling.tolist()],
    }
    if rockafellian is not None:
        doc["rockafellian"] = [[_entry(v) for v in row] for row in rockafellian.tolist()]
    if lagrangian is not None:
        doc["lagrangian"] = [[_entry(v) for v in row] for row in lagrangian.tolist()]
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return str(path)


def _couple(rng, n, out, tag):
    """One canonical couple (c, L, R), also written to a combined file."""
    c = random_table(rng, n, n)
    lag, r = oracle.canonical_couple(random_table(rng, n, n), c)
    path = write_problem(out / f"{tag}couple.json", c, r, lag, "canonical couple")
    return path, (c, lag, r)


def _distinct_draw(rng, old):
    while True:
        v = random_table(rng, 1, 1)[0, 0]
        if v != old:
            return v


def _audit_rounds(rng, n, out, tag, oracles):
    # One couple per run keeps the ops alike, so a few give a steady median.
    path, _ = _couple(rng, n, out, tag)
    return [[{"kind": "cli", "expect": "couple", "argv": ["check-couple", path]}]]


def _reject_rounds(rng, n, out, tag, oracles):
    _, couple = _couple(rng, n, out, tag)
    strata = len(REJECT_ROUNDS) * 2
    rounds = []
    for k, pair in enumerate(REJECT_ROUNDS):
        ops = []
        for side, stratum in zip(("R", "L") if k % 2 == 0 else ("L", "R"), pair):
            c, lag, r = couple
            iu = int((stratum + 0.5) * n / strata)
            j = int(rng.integers(n))
            lag, r = lag.copy(), r.copy()
            table = r if side == "R" else lag
            table[iu, j] = _distinct_draw(rng, table[iu, j])
            path = write_problem(
                out / f"{tag}reject{stratum}.json", c, r, lag,
                f"couple with {side}[{iu}][{j}] changed",
            )
            ops.append({"kind": "cli", "expect": "reject",
                        "argv": ["check-couple", path]})
        rounds.append(ops)
    return rounds


def _transform_rounds(rng, n, out, tag, oracles):
    rounds = []
    for j in range(TRANSFORM_PAIRS):
        c = random_table(rng, n, n)
        r = random_table(rng, n, n)
        lag = random_table(rng, n, n)
        key_l, key_r = f"{tag}lagrangian{j}", f"{tag}rockafellian{j}"
        oracles[key_l] = oracle.lagrangian(r, c)
        oracles[key_r] = oracle.rockafellian(lag, c)
        r_path = write_problem(out / f"{tag}r{j}.json", c, rockafellian=r)
        l_path = write_problem(out / f"{tag}l{j}.json", c, lagrangian=lag)
        rounds.append([
            {"kind": "cli", "expect": "transform", "table": "lagrangian",
             "oracle": key_l, "argv": ["to-lagrangian", r_path, "--output", "{out}"]},
            {"kind": "cli", "expect": "transform", "table": "rockafellian",
             "oracle": key_r, "argv": ["to-rockafellian", l_path, "--output", "{out}"]},
        ])
    return rounds


def _fuzz_rounds(rng, tiny, count):
    return [
        [{"kind": "fuzz", "seed": int(rng.integers(2**31)),
          "count": FUZZ_CHUNK[tiny], "max_set_size": FUZZ_MAX_SET_SIZE}]
        for _ in range(count)
    ]


ROUND_MAKERS = {"audit": _audit_rounds, "reject": _reject_rounds,
            "transform": _transform_rounds}
WORKLOADS = ("fuzz", "audit", "reject", "transform")


def _rounds(workload, rng, n, out, tag, oracles, tiny, fuzz_chunks):
    if workload == "fuzz":
        return _fuzz_rounds(rng, tiny, fuzz_chunks)
    return ROUND_MAKERS[workload](rng, n, out, tag, oracles)


def _sweep(rng, out):
    entries = []
    for n in SWEEP_SIZES:
        c = random_table(rng, n, n)
        r = random_table(rng, n, n)
        lag = oracle.lagrangian(r, c)
        r_path = write_problem(out / f"sweep_r{n}.json", c, rockafellian=r)
        l_path = write_problem(out / f"sweep_l{n}.json", c, lagrangian=lag)
        entries += [
            {"fn": "conjugate", "n": n, "file": r_path},
            {"fn": "lagrangian_of", "n": n, "file": r_path},
            {"fn": "rockafellian_of", "n": n, "file": l_path},
        ]
    for n in AUDIT_SWEEP_SIZES:
        c = random_table(rng, n, n)
        lag, r = oracle.canonical_couple(random_table(rng, n, n), c)
        path = write_problem(out / f"sweep_couple{n}.json", c, r, lag)
        entries.append({"fn": "audit", "n": n, "file": path})
    return entries


def make_plan(workload, seed, out, trace, tiny):
    """Write the inputs for one run under ``out``; return (plan, oracles).

    ``oracles`` maps the ``oracle`` key of each transform op to the table
    its ``--output`` file must hold.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    oracles = {}
    size = TINY_SIZE if tiny else SIZES.get(workload)
    plan = {
        "workload": workload,
        "rounds": _rounds(workload, rng, size, out, "", oracles, tiny, FUZZ_CHUNKS),
        "out_dir": str(out / "out"),
    }
    if trace:
        # One round of every workload at the tiny size, traced after the
        # workload itself, gives every layer a sample on every workload.
        plan["tiny_rounds"] = [
            _rounds(w, rng, TINY_SIZE, out, f"tiny_{w}_", oracles, True, 1)[0]
            for w in WORKLOADS
        ]
        plan["sweep"] = _sweep(rng, out)
        plan["extreal_seed"] = int(rng.integers(2**31))
    return plan, oracles

