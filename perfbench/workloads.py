"""Seeded job lists for the three benchmark workloads.

A workload is a list of slots. A slot is ``(k, alternatives)``: the seed
picks ``k`` distinct alternatives, and then shuffles the whole list. Every
seed therefore draws the same number of jobs from each slot, so the job
mix (and with it the median and tail clusters) has the same shape on
every seed, while the concrete jobs and their order change (one
lattice-audit job always runs last, see ``LATTICE_AUDIT_LAST``). The union
of all alternatives is the workload's universe; the goldens cover it.

A job is a tuple: ``("cli", argv...)`` runs ``k3lat.cli.main(argv)``, and
``("lib", function, args...)`` calls a public library function.
"""

import hashlib
import json
import random

QEXP_SWEEP = "qexp-sweep"
WEIL_RELATIONS = "weil-relations"
LATTICE_AUDIT = "lattice-audit"
WORKLOADS = (QEXP_SWEEP, WEIL_RELATIONS, LATTICE_AUDIT)


def cli(*argv):
    return ("cli",) + tuple(str(a) for a in argv)


def lib(function, *args):
    return ("lib", function) + tuple(args)


def fixed(*jobs):
    """Slots that always run, one per job."""
    return [(1, [job]) for job in jobs]


def twins(*argv):
    """Text and --json runs of one command: the same computation twice."""
    return fixed(cli(*argv), cli(*argv, "--json"))


def either_format(*argv):
    """One run of a command, as text or --json by the seed."""
    return [(1, [cli(*argv), cli(*argv, "--json")])]


ETA_SPECS = ("1^-8,2^8,4^-8", "2^-16,4^8", "1^-24", "1^8,2^8")


def _qexp_sweep():
    # Clusters, cheapest first: theta, eta at 32, then the psi-at-32 block
    # that holds the median, eta at 80, the psi-at-80 block, and psi 7 at
    # 160. The psi-at-80 block has psi 5-7 (~150 ms) on top of psi 1-4
    # (~115 ms), so with one job at 160 the tail percentile (the eleventh
    # slowest) lands in the middle of the psi 1-4 twins. Psi at 160 is one
    # fixed job: four seeded m at 160 (0.4-0.6 s each) put the tail on the
    # edge of that block and moved jobs_per_s from seed to seed.
    slots = []
    for m in range(1, 8):
        slots += twins("qexp", "psi", m, "--prec", 32)
        slots += twins("qexp", "psi", m, "--prec", 80)
    slots += fixed(cli("qexp", "psi", 7, "--prec", 160))
    for spec in ETA_SPECS:
        for prec in (32, 80):
            slots += twins("qexp", "eta", spec, "--prec", prec)
    for kind in ("integral", "shifted"):
        for prec in (32, 80, 160):
            slots += either_format("qexp", "theta", kind, "--prec", prec)
    return slots


def _weil_relations():
    # Ten a=5 checks (110-150 ms) sit just below the five heaviest jobs, so
    # the tail percentile (ten jobs beyond it) lands in the middle of that
    # block, clear of the a=6 matrices (75-100 ms) below it. The twenty a=4
    # checks hold the median, with fifteen jobs below them and twenty above;
    # there are many of them because the median of a block spread over the
    # whole pass is steadier than that of a few jobs. The one a=7 check is
    # the same on every seed: a seeded pick between M7 (3.4 s) and
    # <2>^2 + <-2>^5 (2.6 s) moved jobs_per_s by about 9% from seed to seed.
    slots = fixed(cli("weil", "check", "<2>^2 + <-2>^5"))
    slots += fixed(cli("weil", "matrix", "E8(2)", "--word", "S"))
    for expr in ("M6", "<2>^2 + <-2>^4", "U(2)^2 + <2> + <-2>"):
        slots += either_format("weil", "check", expr)
    for expr in ("M5", "<2>^2 + <-2>^3", "U(2)^2 + <2>", "U(2)^2 + <-2>",
                 "U(2) + <-2>^3"):
        slots += twins("weil", "check", expr)
    for expr, word in (("M6", "S"), ("M6", "T,S"), ("U(2)^3", "S,T"),
                       ("M6", "S^-1"), ("M6", "T^-1,S")):
        slots += either_format("weil", "matrix", expr, "--word", word)
    for expr in ("U(2)^2", "M4", "U(2) + <2> + <-2>", "<2>^2 + <-2>^2",
                 "U(2) + <-2>^2", "<-2>^4", "<2>^4", "<2> + <-2>^3",
                 "U(2) + <2>^2", "<2>^3 + <-2>"):
        slots += twins("weil", "check", expr)
    for expr in ("<2>^2 + <-2>", "M3", "U(2) + <2>", "U(2) + <-2>", "<-2>^3",
                 "<2>", "<-2>", "U(2)", "M1"):
        slots += either_format("weil", "check", expr)
    for expr, word in (("<2>", "S"), ("U(2)", "S,T"), ("M2", "T,S^-1"),
                       ("M3", "T^-1"), ("M4", "S,T,S"), ("M5", "T,S")):
        slots += either_format("weil", "matrix", expr, "--word", word)
    return slots


# The cheap end of LAT_INFO_EXPRS (a <= 5, 1.5-5 ms each), run in both formats.
LAT_INFO_SMALL = ("U", "U(2)", "E8", "M1", "M2", "M3", "M4", "M5", "<2>^2 + <-2>^1",
                  "<2>^2 + <-2>^2", "<2>^2 + <-2>^3")

LAT_INFO_EXPRS = (
    ["U", "U(2)", "E8", "E8(2)", "LambdaK3", "U(2) + M7", "U(2)^2 + E8",
     "U(2)^2 + E8(2)"]
    + [f"M{n}" for n in range(1, 11)]
    + [f"<2>^2 + <-2>^{n}" for n in range(1, 9)]
)

# find_isogeny_glue cases: (expression, target a, target delta)
GLUE_CASES = (
    ("U(2) + U(2)", 2, 0),
    ("U(2) + U(2)", 0, 0),
    ("<2>^2 + <-2>^8", 8, 1),
    ("<2>^2 + <-2>^6", 6, 1),
    ("U(2) + E8(2)", 8, 0),
    ("U(2) + E8(2)", 6, 0),
    ("E8(2)", 6, 0),
    ("E8(2)", 4, 0),
    ("U(2)^2 + E8(2)", 10, 0),
    ("U(2) + <2> + <-2>", 2, 1),
)

# The 75 realizable triplets (r, a, delta), the independent count that
# `geo list --count` must print. Kept as data so that job lists never depend
# on the program under test.
TRIPLETS = (
    (1, 1, 1), (2, 0, 0), (2, 2, 0), (2, 2, 1), (3, 1, 1), (3, 3, 1), (4, 2, 1),
    (4, 4, 1), (5, 3, 1), (5, 5, 1), (6, 2, 0), (6, 4, 0), (6, 4, 1), (6, 6, 1),
    (7, 3, 1), (7, 5, 1), (7, 7, 1), (8, 2, 1), (8, 4, 1), (8, 6, 1), (8, 8, 1),
    (9, 1, 1), (9, 3, 1), (9, 5, 1), (9, 7, 1), (9, 9, 1), (10, 0, 0), (10, 2, 0),
    (10, 2, 1), (10, 4, 0), (10, 4, 1), (10, 6, 0), (10, 6, 1), (10, 8, 0),
    (10, 8, 1), (10, 10, 0), (10, 10, 1), (11, 1, 1), (11, 3, 1), (11, 5, 1),
    (11, 7, 1), (11, 9, 1), (11, 11, 1), (12, 2, 1), (12, 4, 1), (12, 6, 1),
    (12, 8, 1), (12, 10, 1), (13, 3, 1), (13, 5, 1), (13, 7, 1), (13, 9, 1),
    (14, 2, 0), (14, 4, 0), (14, 4, 1), (14, 6, 0), (14, 6, 1), (14, 8, 1),
    (15, 3, 1), (15, 5, 1), (15, 7, 1), (16, 2, 1), (16, 4, 1), (16, 6, 1),
    (17, 1, 1), (17, 3, 1), (17, 5, 1), (18, 0, 0), (18, 2, 0), (18, 2, 1),
    (18, 4, 0), (18, 4, 1), (19, 1, 1), (19, 3, 1), (20, 2, 1),
)

# The job with the largest transient allocation (its 4560-vector table),
# run last on every seed: run early, it set the pass's peak RSS on a smaller
# heap, and the shuffle moved peak_rss_mb by 4% from seed to seed.
LATTICE_AUDIT_LAST = cli("vec", "short", "E8", "--bound", 6)

# Every triplet but one audits by table lookup (2-5 ms); (13, 9, 1) runs a
# witness search, so it is a fixed slot instead of a seeded draw.
AUDIT_SLOW_TRIPLET = (13, 9, 1)


def _lattice_audit():
    # Clusters: about half the jobs take 1.5-5 ms (small lat info, the
    # twenty triplet lookups, the small glue cases and witnesses), so the
    # median lands inside that block, away from its edges. The eleventh
    # slowest job of a pass, the tail percentile, lands inside the 110-170
    # ms block (audit --all, vec short E8(2) and E8 bound 4, glue, lift).
    slots = []
    for expr in LAT_INFO_EXPRS:
        if expr in LAT_INFO_SMALL:
            slots += twins("lat", "info", expr)
        else:
            slots += either_format("lat", "info", expr)
    slots += fixed(cli("geo", "list"), cli("geo", "list", "--json"),
                   cli("geo", "list", "--count"))
    # Formats are fixed here: these outputs are large enough that the
    # format would move peak_rss_mb from seed to seed.
    slots += fixed(cli("vec", "short", "E8", "--bound", 2, "--json"),
                   cli("vec", "short", "E8", "--bound", 4),
                   LATTICE_AUDIT_LAST,
                   cli("vec", "short", "E8(2)", "--bound", 8, "--json"),
                   cli("vec", "short", "<-2>^8", "--bound", 6))
    for expr, norm, box in (("U", -4, 3), ("U(2) + <-2>", -2, 3),
                            ("LambdaK3", -2, 2)):
        slots += either_format("vec", "witness", expr, "--norm", norm, "--box", box)
    triplet_jobs = []
    for r, a, d in TRIPLETS:
        if (r, a, d) == AUDIT_SLOW_TRIPLET:
            continue
        triplet_jobs.append(cli("audit", "kodaira", "--triplet", r, a, d))
        triplet_jobs.append(cli("audit", "kodaira", "--triplet", r, a, d, "--json"))
    slots.append((20, triplet_jobs))
    slots += either_format("audit", "kodaira", "--triplet", *AUDIT_SLOW_TRIPLET)
    slots += twins("audit", "kodaira", "--all")
    slots += fixed(*(lib("find_isogeny_glue", *case) for case in GLUE_CASES))
    slots += fixed(*(lib("lift_consistency", r) for r in range(5, 9)))
    return slots


_BUILDERS = {
    QEXP_SWEEP: _qexp_sweep,
    WEIL_RELATIONS: _weil_relations,
    LATTICE_AUDIT: _lattice_audit,
}


def slots(workload):
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _BUILDERS[workload]()


def job_list(workload, seed):
    """The workload's jobs for ``seed``, in run order."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    for k, alternatives in slots(workload):
        jobs += rng.sample(alternatives, k)
    rng.shuffle(jobs)
    if workload == LATTICE_AUDIT:
        jobs.remove(LATTICE_AUDIT_LAST)
        jobs.append(LATTICE_AUDIT_LAST)
    return jobs


def universe(workload):
    """Every job some seed can draw."""
    out = []
    for _, alternatives in slots(workload):
        out += [job for job in alternatives if job not in out]
    return out


def job_key(job):
    return json.dumps(list(job), separators=(",", ":"))


def list_hash(jobs):
    text = "\n".join(job_key(job) for job in jobs)
    return hashlib.sha256(text.encode()).hexdigest()


def tail_rank(jobs_per_pass):
    """The highest percentile with at least ten jobs of one pass beyond it."""
    return (jobs_per_pass - 10) / jobs_per_pass
