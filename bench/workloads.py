"""The pdmm benchmark workloads: instantiate, multiply and sweep.

Every workload runs the path a user of the library takes, in whole rounds:
instantiate schemes, certify each with `verify_privacy_rank`, multiply
through some of them, and ask the command line for the fewest workers. The
workloads differ in where the weight lies: `instantiate` instantiates 53
schemes, most of them the (K, L, T) grid; `multiply` makes large products;
`sweep` runs large sweeps and searches. The other stages run at a small
size, so that every end-to-end and per-layer metric is measured on every
workload.

Each workload is a closed loop in one process: one operation at a time, in
whole rounds, until `seconds` of wall time have passed. The library is
driven through the public functions of `pdmm.degrees`, `pdmm.scheme` and
`pdmm.cli`, looked up on their modules at every call so that a traced round
sees them through `tracing.Tracer`. Outputs are checked by `checks` after
each round's timed region.

Every time reported is main-thread CPU time scaled to this host's
uncontended speed by `hostspeed.HostSpeed` ("reference CPU seconds"); the
library is single-threaded. Only the run length uses wall time.
"""

from __future__ import annotations

import math
import resource
import statistics
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import pdmm.cli
import pdmm.degrees as D
import pdmm.scheme as S

import checks
from hostspeed import HostSpeed
from tracing import SpanTable, Tracer

# name: (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "certify_s": ("s", "lower", 0.2),
    "field_bits": ("bits", "lower", 0.05),
    "multiply_s": ("s", "lower", 0.15),
    "user_s": ("s", "lower", 0.2),
    "worker_s": ("s", "lower", 0.25),
    "peak_rss_mib": ("MiB", "lower", 0.1),
    "sweep_s": ("s", "lower", 0.2),
    "search_s": ("s", "lower", 0.15),
}

MULTIPLY_LABELS = ("catx-8-8-4", "gasp-small-2-2-2", "dog-rs-3-3-3", "catx-2-2-2-p1e9")

# name: (unit, better)
PER_LAYER = {
    "scheme.instantiate_cat_s": ("s", "lower"),
    "scheme.instantiate_roots_s": ("s", "lower"),
    "scheme.instantiate_search_s": ("s", "lower"),
    "scheme.search_attempts": ("count", "lower"),
    "scheme.primes_tried": ("count", "lower"),
    "scheme.accept_ratio": ("ratio", "higher"),
    "linalg.submatrix_check_s": ("s", "lower"),
    "linalg.submatrix_checks": ("count", "lower"),
    "linalg.subsets_checked": ("count", "lower"),
    "linalg.full_verifications": ("count", "lower"),
    "linalg.useful_subset_ratio": ("ratio", "higher"),
    "linalg.gamma_check_s": ("s", "lower"),
    "linalg.gamma_rejects": ("count", "lower"),
    "linalg.vandermonde_s": ("s", "lower"),
    "linalg.subsets_per_s": ("1/s", "higher"),
    "linalg.certify_check_s": ("s", "lower"),
    "linalg.certify_subsets": ("count", "lower"),
    "field.setup_s": ("s", "lower"),
    "degrees.validate_s": ("s", "lower"),
    "scheme.partition_s": ("s", "lower"),
    "scheme.randomness_s": ("s", "lower"),
    "scheme.randomness_draws_per_s": ("1/s", "higher"),
    "scheme.encode_s": ("s", "lower"),
    "scheme.decode_s": ("s", "lower"),
    "scheme.assemble_s": ("s", "lower"),
    "linalg.solve_s": ("s", "lower"),
    "linalg.decode_vandermonde_s": ("s", "lower"),
    **{f"scheme.user_s.{label}": ("s", "lower") for label in MULTIPLY_LABELS},
    **{f"scheme.worker_s.{label}": ("s", "lower") for label in MULTIPLY_LABELS},
    "scheme.worker_macs": ("MAC", "lower"),
    "scheme.worker_mac_per_s": ("MAC/s", "higher"),
    "multiply.direct_s": ("s", "lower"),
    "multiply.user_overhead_x": ("x", "lower"),
    "search.points": ("count", "higher"),
    "search.point_ms": ("ms", "lower"),
    "search.best_gasp_r_s": ("s", "lower"),
    "search.best_gasp_rs_s": ("s", "lower"),
    "search.best_dog_rs_s": ("s", "lower"),
    "search.catx_choice_s": ("s", "lower"),
    "cli.sweep_self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

FAMILIES = ("catx", "gasp-small", "gasp-big", "gasp-rs", "dog-rs")


# -- scheme specifications ---------------------------------------------------


@dataclass(frozen=True)
class SchemeSpec:
    label: str
    family: str
    klt: tuple[int, int, int]
    r: int | None = None
    s: int | None = None
    min_p: int = 0


def scheme_spec(family: str, klt: tuple[int, int, int], min_p: int = 0, label: str = "") -> SchemeSpec:
    """The family at (K, L, T); gasp-rs and dog-rs at their best (r, s)."""
    k, l, t = klt
    r = s = None
    if family in ("gasp-rs", "dog-rs"):
        _, r, s = checks.best_params(family, k, l, t)
    elif family == "gasp-small":
        r = 1
    elif family == "gasp-big":
        r = min(k, t)
    return SchemeSpec(label or f"{family}-{k}-{l}-{t}", family, klt, r, s, min_p)


def degree_vectors(spec: SchemeSpec):
    k, l, t = spec.klt
    if spec.family == "catx":
        return D.construct_cat_x(k, l, t, 1)
    if spec.family in ("gasp-small", "gasp-big"):
        return D.construct_gasp_r(k, l, t, spec.r)
    if spec.family == "gasp-rs":
        return D.construct_gasp_rs(k, l, t, spec.r, spec.s)
    return D.construct_dog_rs(k, l, t, spec.r, spec.s)


def reference_table(spec: SchemeSpec):
    """The same degree table, built by the benchmark's own construction."""
    family = "gasp-r" if spec.family in ("gasp-small", "gasp-big") else spec.family
    return checks.build(family, *spec.klt, spec.r, spec.s)


def instantiate(spec: SchemeSpec, dv, seed: int):
    """catx and gasp-small/big on roots of unity, the rest by random search."""
    if spec.family == "catx":
        return S.instantiate_cat(dv, min_p=spec.min_p)
    if spec.family in ("gasp-small", "gasp-big"):
        return S.instantiate_degree_table(
            dv, "roots_of_unity", min_p=spec.min_p, family=spec.family
        )
    return S.instantiate_degree_table(
        dv, "random_search", seed=seed, min_p=spec.min_p, family=spec.family
    )


# -- configurations ----------------------------------------------------------


def grid(max_k: int) -> list[SchemeSpec]:
    """Every family on the grid 2 <= T <= L <= K <= max_k."""
    points = [
        (k, l, t) for k in range(2, max_k + 1) for l in range(2, k + 1) for t in range(2, l + 1)
    ]
    return [scheme_spec(f, klt) for klt in points for f in FAMILIES]


@dataclass(frozen=True)
class ProductSpec:
    label: str  # the scheme's label
    dims: tuple[int, int, int]  # rows of A, inner dimension, columns of B
    fixed_inputs: bool = False  # inputs and randomness independent of --seed


@dataclass(frozen=True)
class SweepConfig:
    kequalsl: tuple[str, str]  # K (= L) range, T range
    full: tuple[str, str, str]  # K, L, T ranges
    search_points: tuple


@dataclass(frozen=True)
class Config:
    """One workload's make-up. A round instantiates and certifies every
    scheme, makes every product and runs every command, each stage `passes`
    times over (setup, certify, products, commands). An operation's time is
    the median of its samples over the passes and rounds of a run."""

    schemes: tuple[SchemeSpec, ...]
    products: tuple[ProductSpec, ...]
    sweep: SweepConfig
    passes: tuple[int, int, int, int]
    min_rounds: int


def _with(schemes, *more: SchemeSpec) -> tuple[SchemeSpec, ...]:
    labels = {s.label for s in schemes}
    return tuple(schemes) + tuple(s for s in more if s.label not in labels)


# (p-1)^2 * 64 > 2^63: wrong in worker_multiply's int64 product until that
# overflow is mended, so its inputs do not depend on --seed.
BIG_FIELD = scheme_spec("catx", (2, 2, 2), 10**9, "catx-2-2-2-p1e9")
PRODUCT_SCHEMES = (
    scheme_spec("catx", (8, 8, 4)),
    scheme_spec("gasp-small", (2, 2, 2)),
    scheme_spec("dog-rs", (3, 3, 3)),
    BIG_FIELD,
)


def products(*dims) -> tuple[ProductSpec, ...]:
    return tuple(
        ProductSpec(s.label, d, s is BIG_FIELD) for s, d in zip(PRODUCT_SCHEMES, dims + ((64, 64, 64),))
    )


LARGE_PRODUCTS = products((512, 512, 512), (512, 512, 512), (384, 384, 384))
SMALL_PRODUCTS = products((96, 96, 96), (96, 96, 96), (96, 96, 96))
LARGE_SWEEP = SweepConfig(
    ("2..20", "2..20"), ("2..10", "2..10", "2..10"), ((100, 100, 100), (120, 80, 60), (60, 60, 40))
)
SMALL_SWEEP = SweepConfig(("2..8", "2..8"), ("2..6", "2..6", "2..6"), ((40, 40, 30), (30, 30, 20)))

FULL = {
    # T >= 5 takes linalg's rank path: gasp-rs (2,2,5).
    "instantiate": Config(
        _with(PRODUCT_SCHEMES, *grid(4), scheme_spec("gasp-rs", (2, 2, 5))),
        SMALL_PRODUCTS, SMALL_SWEEP, passes=(1, 1, 6, 6), min_rounds=1,
    ),
    "multiply": Config(PRODUCT_SCHEMES, LARGE_PRODUCTS, SMALL_SWEEP, (5, 2, 1, 5), min_rounds=2),
    "sweep": Config(PRODUCT_SCHEMES, SMALL_PRODUCTS, LARGE_SWEEP, (5, 2, 5, 1), min_rounds=2),
}

# The self-test's size: every stage, every check, the failing product.
_SMALL_SCHEMES = _with(grid(2), scheme_spec("gasp-rs", (2, 2, 3)), BIG_FIELD)
SMALL = Config(
    _SMALL_SCHEMES,
    (
        ProductSpec("catx-2-2-2", (8, 6, 8)),
        ProductSpec("dog-rs-2-2-2", (7, 5, 9)),
        ProductSpec(BIG_FIELD.label, (64, 64, 64), True),
    ),
    SweepConfig(("2..7", "2..6"), ("2..3", "2..3", "2..3"), ((12, 10, 8),)),
    passes=(2, 2, 2, 2), min_rounds=2,
)


# -- harness -----------------------------------------------------------------


@dataclass(frozen=True)
class Failure:
    """An operation that raised; the traceback's tail."""

    error: str

    def __str__(self):
        return self.error


def _attempt(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception:  # one operation's failure is counted, the run goes on
        return Failure(traceback.format_exc(limit=-3).strip())


@dataclass
class Round:
    index: int
    traced: bool
    # Times are first recorded as clock intervals and turned into reference
    # CPU seconds by `_settle` after the run, when the host-speed samples
    # after each interval exist too.
    round_s: float | tuple = (0.0, 0.0)  # the whole round
    wall_s: float = 0.0  # wall time of the round and its checks
    values: dict = field(default_factory=dict)  # metric -> {operation: [seconds per sample]}
    stages: dict = field(default_factory=dict)  # product -> {stage: [seconds per pass]}
    outputs: dict = field(default_factory=dict)
    direct_s: float | tuple = (0.0, 0.0)  # traced rounds: the plain a @ b % p baseline


def _settle(rnd: Round, speed: HostSpeed):
    """Clock intervals to reference CPU seconds. A sample is a list of
    intervals (user_s: the user stages of one product)."""

    def secs(sample):
        return sum(speed.seconds(a, b) for a, b in sample)

    rnd.round_s, rnd.direct_s = secs([rnd.round_s]), secs([rnd.direct_s])
    for ops in rnd.values.values():
        for label, samples in ops.items():
            ops[label] = [secs(sample) for sample in samples]
    for stages in rnd.stages.values():
        for stage, laps in stages.items():
            stages[stage] = [secs([lap]) for lap in laps]


def _no_op(label):
    return nullcontext()


def _median(rounds, key):
    """Sum over operations of each operation's median time over its passes
    and rounds: the time of a typical round, less swayed by a burst of host
    noise in one operation than the median of round totals."""
    ops = rounds[0].values[key]
    return sum(statistics.median(t for r in rounds for t in r.values[key][op]) for op in ops)


def _ratio(num, den):
    return num / den if den else 0.0


def _range(spec: str) -> list[int]:
    lo, hi = spec.split("..")
    return list(range(int(lo), int(hi) + 1))


USER_STAGES = {
    "scheme.partition_a": "partition",
    "scheme.partition_b": "partition",
    "scheme.draw_randomness": "randomness",
    "scheme.encode": "encode",
    "scheme.decode": "decode",
    "scheme.assemble": "assemble",
}


def staged_product(scheme, a, b, seed: int, times: dict, clock):
    """multiply_via_scheme's stages, called one by one; `times` gets each
    stage's (start, end) clock readings."""

    def lap(stage, start):
        now = clock()
        times[stage] = (start, now)
        return now

    t = clock()
    a_parts = S.partition_a(a, scheme.dv.k)
    b_parts = S.partition_b(b, scheme.dv.l)
    t = lap("partition", t)
    rnd = S.draw_randomness(scheme, a_parts.blocks[0].shape, b_parts.blocks[0].shape, seed)
    t = lap("randomness", t)
    tasks = S.encode(scheme, a_parts, b_parts, rnd)
    t = lap("encode", t)
    responses = [S.worker_multiply(scheme.field, task) for task in tasks]
    t = lap("worker", t)
    grid = S.decode(scheme, responses)
    t = lap("decode", t)
    out = S.assemble(grid, a_parts, b_parts)
    lap("assemble", t)
    return out


# -- the workload ----------------------------------------------------------------


class Workload:
    """One workload's rounds, checks and metrics.

    Operations: one scheme instantiated and certified in every pass; one
    product (two per product spec and pass: `multiply_via_scheme` and the
    stage functions); one command per pass.
    """

    def __init__(self, config: Config, seed: int, out_dir: Path, speed: HostSpeed):
        self.config, self.seed, self.out_dir, self.speed = config, seed, out_dir, speed
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.dvs = {spec.label: degree_vectors(spec) for spec in config.schemes}
        self.inputs: list = [None] * len(config.products)  # from round 0's fields
        self.references: list = [None] * len(config.products)
        self.first: dict | None = None  # round 0's schemes, certificates, outputs
        self.commands = self._commands()

    def _commands(self):
        cfg = self.config.sweep
        self.out_dir.mkdir(parents=True, exist_ok=True)
        ks, ts = (_range(r) for r in cfg.kequalsl)
        fk, fl, ft = (_range(r) for r in cfg.full)
        # (label, metric, argv, the grid points or the search point the output covers)
        commands = [
            ("sweep-kequalsl", "sweep_s",
             ["sweep", "--K-range", cfg.kequalsl[0], "--T-range", cfg.kequalsl[1],
              "--mode", "KequalsL", "--format", "csv"],
             [(k, k, t) for k in ks for t in ts]),
            ("sweep-full", "sweep_s",
             ["sweep", "--K-range", cfg.full[0], "--L-range", cfg.full[1],
              "--T-range", cfg.full[2], "--mode", "full", "--format", "csv"],
             [(k, l, t) for k in fk for l in fl for t in ft]),
        ] + [
            (f"search-{k}-{l}-{t}", "search_s",
             ["search", "-K", str(k), "-L", str(l), "-T", str(t), "--format", "json"], (k, l, t))
            for k, l, t in cfg.search_points
        ]
        return [
            (label, metric, argv + ["-o", str(self.out_dir / f"{label}.out")], expect)
            for label, metric, argv, expect in commands
        ]

    def count(self, problems: list[str], known_fault: bool = False):
        """Record one operation. A failure that the benchmark attributes to a
        named fault of the program is counted but leaves `correct` true."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if not known_fault:
                self.problems.extend(problems)

    def _inputs(self, i: int, schemes: dict):
        spec = self.config.products[i]
        scheme = schemes[spec.label]
        if isinstance(scheme, Failure):
            return None
        rng = np.random.default_rng([0 if spec.fixed_inputs else self.seed % 2**64, i])
        rows, inner, cols = spec.dims
        p = scheme.field.p
        return (rng.integers(0, p, (rows, inner), dtype=np.int64),
                rng.integers(0, p, (inner, cols), dtype=np.int64))

    def _seed(self, i: int, product_pass: int) -> int:
        """Randomness seed of one product, per run and pass; the stage path
        uses this plus one. Constant for fixed-input products."""
        if self.config.products[i].fixed_inputs:
            return 0
        return ((self.seed & 0xFFFFFFFF) << 24) + ((product_pass + 1) << 6) + 2 * i

    # -- one round ---------------------------------------------------------

    def schedule(self) -> list[tuple]:
        """A round's steps, (kind, pass, index), in the order they run.

        Set-up passes run in scheme order over the first half of the round
        and certification passes over the second; product and command
        passes are spread evenly over the whole round, so that their
        samples meet the host in many states rather than one. A step never
        runs before the first instantiation of the scheme it uses.
        """
        cfg = self.config
        setup_passes, certify_passes, product_passes, command_passes = cfg.passes
        n = len(cfg.schemes) * setup_passes
        at = {spec.label: (j + 0.5) / n for j, spec in enumerate(cfg.schemes)}

        def spread(kind, passes, items, lo, hi, label=None):
            total = passes * len(items)
            out = []
            for q in range(total):
                k, i = divmod(q, len(items))
                pos = lo + (hi - lo) * (q + 0.5) / total
                if label is not None:
                    pos = max(pos, at[label(i)] + 1e-9)
                out.append((pos, kind, k, i))
            return out

        steps = spread("setup", setup_passes, cfg.schemes, 0.0, 1.0)
        steps += spread("certify", certify_passes, cfg.schemes, 1.0, 2.0,
                        lambda i: cfg.schemes[i].label)
        steps += spread("product", product_passes, cfg.products, 0.0, 2.0,
                        lambda i: cfg.products[i].label)
        steps += spread("command", command_passes, self.commands, 0.0, 2.0)
        return [step[1:] for step in sorted(steps, key=lambda step: step[0])]

    def round(self, rnd: Round, tracer: Tracer | None):
        op = tracer.op if tracer else _no_op
        now = self.speed.clock
        cfg = self.config
        setup_passes, certify_passes, product_passes, command_passes = cfg.passes
        times = {m: {} for m in END_TO_END if m.endswith("_s")}
        setups = [{} for _ in range(setup_passes)]
        schemes = setups[0]
        certificates = [{} for _ in range(certify_passes)]
        products = [[None] * len(cfg.products) for _ in range(product_passes)]
        commands = [{} for _ in range(command_passes)]

        def timed(metric, label, fn, *args, **kwargs):
            s0 = now()
            with op(label):
                out = _attempt(fn, *args, **kwargs)
            times[metric].setdefault(label, []).append([(s0, now())])
            return out

        t0 = now()
        for kind, k, i in self.schedule():
            if kind == "setup":
                spec = cfg.schemes[i]
                setups[k][spec.label] = timed(
                    "setup_s", spec.label, instantiate, spec, self.dvs[spec.label], self.seed
                )
            elif kind == "certify":
                label = cfg.schemes[i].label
                scheme = schemes[label]
                certificates[k][label] = scheme if isinstance(scheme, Failure) else timed(
                    "certify_s", label, S.verify_privacy_rank, scheme
                )
            elif kind == "product":
                products[k][i] = self._product(rnd, i, rnd.index * product_passes + k,
                                               schemes, times, timed, op)
            else:
                label, metric, argv, _ = self.commands[i]
                code = timed(metric, label, pdmm.cli.main, argv)
                commands[k][label] = (code, Path(argv[-1]).read_text() if code == 0 else None)
        rnd.round_s = (t0, now())
        rnd.values = times
        rnd.outputs = {"setups": setups, "certificates": certificates,
                       "products": products, "commands": commands}
        if rnd.traced:
            s0 = now()
            for spec, pair in zip(cfg.products, self.inputs):
                if pair is not None:
                    pair[0] @ pair[1] % schemes[spec.label].field.p
            rnd.direct_s = (s0, now())

    def _product(self, rnd, i, product_pass, schemes, times, timed, op):
        """One product by multiply_via_scheme and one by the stage functions."""
        spec = self.config.products[i]
        scheme = schemes[spec.label]
        if self.inputs[i] is None:
            self.inputs[i] = self._inputs(i, schemes)
        pair = self.inputs[i]
        if pair is None:  # its scheme failed
            return (scheme, scheme)
        seed = self._seed(i, product_pass)
        whole = timed("multiply_s", spec.label, S.multiply_via_scheme, scheme, *pair, seed=seed)
        laps: dict = {}
        with op(spec.label):
            staged = _attempt(staged_product, scheme, *pair, seed + 1, laps, self.speed.clock)
        user = [lap for stage, lap in laps.items() if stage != "worker"]
        times["user_s"].setdefault(spec.label, []).append(user)
        times["worker_s"].setdefault(spec.label, []).append([laps["worker"]] if "worker" in laps else [])
        for stage, lap in laps.items():
            rnd.stages.setdefault(spec.label, {}).setdefault(stage, []).append(lap)
        return (whole, staged)

    # -- checks --------------------------------------------------------------

    def check(self, rnd: Round):
        out = rnd.outputs
        first = self.first is None
        if first:
            self.first = {"schemes": {}, "commands": {}}
        for spec in self.config.schemes:
            self._check_scheme(spec, [s[spec.label] for s in out["setups"]],
                               [c[spec.label] for c in out["certificates"]], first, rnd.index)
        for products in out["products"]:
            for i, outs in enumerate(products):
                self._check_products(i, outs)
        for commands in out["commands"]:
            for label, _, _, expect in self.commands:
                self._check_command(label, expect, *commands[label], rnd.index)

    def _check_scheme(self, spec, instances, certs, first: bool, index: int):
        scheme, cert = instances[0], certs[0]
        if isinstance(scheme, Failure):
            self.count([f"{spec.label}: {scheme}"])
        elif isinstance(cert, Failure):
            self.count([f"{spec.label}: {cert}"])
        elif any(s != scheme for s in instances[1:]):
            self.count([f"{spec.label}: set-up passes disagree"])
        elif any(c != cert for c in certs[1:]):
            self.count([f"{spec.label}: certification passes disagree"])
        elif first:
            self.first["schemes"][spec.label] = (scheme, cert)
            self.count(checks.scheme_problems(spec.label, scheme, reference_table(spec), cert))
        elif (scheme, cert) != self.first["schemes"].get(spec.label):
            self.count([f"{spec.label}: round {index} differs from round 0"])
        else:
            self.count([])

    def _check_products(self, i: int, outs):
        spec = self.config.products[i]
        pair = self.inputs[i]
        if pair is None:
            for out in outs:
                self.count([f"{spec.label}: no scheme ({out})"])
            return
        a, b = pair
        scheme = self.first["schemes"].get(spec.label, (None,))[0]
        if scheme is None:
            for _ in outs:
                self.count([f"{spec.label}: its scheme failed its checks"])
            return
        p = scheme.field.p
        if self.references[i] is None:
            self.references[i] = checks.reference_product(a, b, p)
        # worker_multiply's int64 a_share @ b_share wraps past 2^63.
        overflow = not checks.int64_safe(p, spec.dims[1])
        for out in outs:
            if isinstance(out, Failure):
                self.count([f"{spec.label}: {out}"])
            else:
                problems = checks.product_problems(spec.label, out, self.references[i])
                self.count(problems, known_fault=overflow)

    def _check_command(self, label, expect, code, text, index: int):
        if code != 0:
            self.count([f"{label}: exit {code}"])
        elif label not in self.first["commands"]:
            verify = checks.csv_problems if label.startswith("sweep") else checks.search_json_problems
            try:
                self.count(verify(text, expect))
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                self.count([f"{label}: malformed output ({exc!r})"])
            self.first["commands"][label] = text
        elif text != self.first["commands"][label]:
            self.count([f"{label}: round {index} output differs from round 0"])
        else:
            self.count([])

    # -- metrics -------------------------------------------------------------

    def metrics(self, plain: list[Round]) -> dict:
        fields = [s.field.p for s, _ in self.first["schemes"].values()]
        out = {}
        for name in END_TO_END:
            if name == "field_bits":
                out[name] = statistics.fmean(math.log2(p) for p in fields) if fields else 0.0
            elif name == "peak_rss_mib":
                out[name] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            else:
                out[name] = _median(plain, name)
        return out

    def layers(self, tab: SpanTable, traced: Round, plain: list[Round]) -> dict:
        setup_passes, certify_passes, product_passes, command_passes = self.config.passes
        out = {
            **_instantiate_layers(tab, setup_passes, certify_passes),
            **_multiply_layers(tab, product_passes, self.config.products),
            **_sweep_layers(tab, command_passes),
        }
        out["multiply.direct_s"] = traced.direct_s
        out["multiply.user_overhead_x"] = _ratio(_median(plain, "user_s"), traced.direct_s)
        return out


# -- per-layer metrics from one traced round's spans ---------------------------

INSTANTIATE = ("scheme.instantiate_cat", "scheme.instantiate_degree_table")
CHECK = "linalg.all_txt_submatrices_invertible"
DRAW = "scheme.SplitMix64.sample_distinct"
MVS = "scheme.multiply_via_scheme"


def _instantiate_layers(tab: SpanTable, setup_passes: int, certify_passes: int) -> dict:
    """Instantiation and certification figures, each per pass."""
    spans = tab.spans
    search = {i for i in tab.named(INSTANTIATE[1]) if spans[i][5] == "random_search"}
    roots = [i for i in tab.named(INSTANTIATE[1]) if spans[i][5] == "roots_of_unity"]
    draws = [i for i in tab.named(DRAW) if tab.ancestor(i, INSTANTIATE[1]) in search]
    inst_checks = [i for i in tab.named(CHECK) if tab.ancestor(i, *INSTANTIATE) is not None]
    cert_checks = [
        i for i in tab.named(CHECK) if tab.ancestor(i, "scheme.verify_privacy_rank") is not None
    ]
    subsets = sum(spans[i][5][1] for i in inst_checks)
    cert_subsets = sum(spans[i][5][1] for i in cert_checks) // certify_passes
    # Subsets checked for the attempt a search accepted: after its last draw.
    last_draw = {}
    for i in draws:
        last_draw[tab.ancestor(i, INSTANTIATE[1])] = i
    useful = sum(
        spans[i][5][1]
        for i in inst_checks
        if i > last_draw.get(tab.ancestor(i, INSTANTIATE[1]), len(spans))
    )
    under_inst = [i for i in range(len(spans)) if tab.ancestor(i, *INSTANTIATE) is not None]

    def called_by_scheme(prefix):
        return [
            i for i in under_inst
            if spans[i][0].startswith(prefix)
            and (tab.parent_name(i) or "").startswith("scheme.")
        ]

    gamma = [i for i in under_inst if spans[i][0] == "linalg.is_invertible"]
    field_calls = called_by_scheme("field.")
    n = setup_passes
    check_s = tab.total(inst_checks) / n
    cert_check_s = tab.total(cert_checks) / certify_passes
    return {
        "scheme.instantiate_cat_s": tab.total(tab.named(INSTANTIATE[0])) / n,
        "scheme.instantiate_roots_s": tab.total(roots) / n,
        "scheme.instantiate_search_s": tab.total(search) / n,
        "scheme.search_attempts": len(draws) // n,
        "scheme.primes_tried": sum(
            spans[i][0] in ("field.find_field", "field.PrimeField.of") for i in field_calls
        ) // n,
        "scheme.accept_ratio": _ratio(len(search), len(draws)),
        "linalg.submatrix_check_s": check_s,
        "linalg.submatrix_checks": len(inst_checks) // n,
        "linalg.subsets_checked": subsets // n,
        "linalg.full_verifications": sum(
            spans[i][5][0] != "found_singular" for i in inst_checks
        ) // n,
        "linalg.useful_subset_ratio": _ratio(useful, subsets),
        "linalg.gamma_check_s": tab.total(gamma) / n,
        "linalg.gamma_rejects": sum(not spans[i][5] for i in gamma) // n,
        "linalg.vandermonde_s": tab.total(
            i for i in under_inst if spans[i][0] == "linalg.vandermonde"
        ) / n,
        "linalg.subsets_per_s": _ratio(subsets / n + cert_subsets, check_s + cert_check_s),
        "linalg.certify_check_s": cert_check_s,
        "linalg.certify_subsets": cert_subsets,
        "field.setup_s": tab.total(field_calls) / n,
        "degrees.validate_s": tab.total(called_by_scheme("degrees.")) / n,
    }


def _multiply_layers(tab: SpanTable, passes: int, products) -> dict:
    """Spans inside multiply_via_scheme, per pass."""
    spans = tab.spans
    inside = [i for i in range(len(spans)) if tab.ancestor(i, MVS) is not None]
    stage = dict.fromkeys(("partition", "randomness", "encode", "decode", "assemble"), 0.0)
    for i in inside:
        name = USER_STAGES.get(spans[i][0])
        if name is not None:
            stage[name] += tab.dur(i) / passes
    workers = [i for i in inside if spans[i][0] == "scheme.worker_multiply"]
    draws = sum(spans[i][5] for i in inside if spans[i][0] == "scheme.draw_randomness") / passes
    macs = sum(spans[i][5] for i in workers) // passes
    worker_s = tab.total(workers) / passes

    def in_decode(name):
        return tab.total(
            i for i in inside if spans[i][0] == name and tab.parent_name(i) == "scheme.decode"
        ) / passes

    out = {
        "scheme.partition_s": stage["partition"],
        "scheme.randomness_s": stage["randomness"],
        "scheme.randomness_draws_per_s": _ratio(draws, stage["randomness"]),
        "scheme.encode_s": stage["encode"],
        "scheme.decode_s": stage["decode"],
        "scheme.assemble_s": stage["assemble"],
        "linalg.solve_s": in_decode("linalg.solve"),
        "linalg.decode_vandermonde_s": in_decode("linalg.vandermonde"),
        "scheme.worker_macs": macs,
        "scheme.worker_mac_per_s": _ratio(macs, worker_s),
    }
    for spec in products:
        mine = [i for i in inside if spans[i][4] == spec.label]
        out[f"scheme.user_s.{spec.label}"] = tab.total(
            i for i in mine if spans[i][0] in USER_STAGES
        ) / passes
        out[f"scheme.worker_s.{spec.label}"] = tab.total(
            i for i in mine if spans[i][0] == "scheme.worker_multiply"
        ) / passes
    return out


def _sweep_layers(tab: SpanTable, passes: int) -> dict:
    """Spans of the CLI commands, per pass."""
    spans = tab.spans
    points = tab.named("search.best_scheme")
    sweep_self = sum(
        tab.dur(i) - tab.total(c for c in tab.children[i] if spans[c][0] == "search.sweep")
        for i in tab.named("cli.cmd_sweep")
    )
    return {
        "search.points": len(points) // passes,
        "search.point_ms": 1000 * _ratio(tab.total(points), len(points)),
        "search.best_gasp_r_s": tab.total(tab.named("search.best_gasp_r")) / passes,
        "search.best_gasp_rs_s": tab.total(tab.named("search.best_gasp_rs")) / passes,
        "search.best_dog_rs_s": tab.total(tab.named("search.best_dog_rs")) / passes,
        "search.catx_choice_s": tab.total(tab.named("search.catx_choice")) / passes,
        "cli.sweep_self_s": sweep_self / passes,
    }


WORKLOADS = tuple(FULL)


def _rounds(workload: Workload, seconds: float, trace: bool) -> list[Round]:
    """Run and check whole rounds until `seconds` of wall time have passed
    and at least the workload's `min_rounds` are done."""
    rounds: list[Round] = []
    least = max(workload.config.min_rounds, 2 if trace else 1)
    deadline = perf_counter() + seconds
    spans = []
    while len(rounds) < least or perf_counter() < deadline:
        rnd = Round(len(rounds), trace and len(rounds) % 2 == 1)
        tracer = Tracer(workload.speed.clock) if rnd.traced else None
        start = perf_counter()
        if tracer:
            tracer.install()
        try:
            workload.round(rnd, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        workload.check(rnd)
        rnd.wall_s = perf_counter() - start
        rnd.outputs = {}
        spans.append(tracer.spans if tracer else None)
        rounds.append(rnd)
    return rounds, spans


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: Path, config=None):
    """Run whole rounds until `seconds` of wall time have passed (and at
    least the workload's `min_rounds`), and report.

    Untraced, the metrics are the end-to-end ones. Traced, rounds alternate
    untraced and traced (at least one of each); the metrics are per-layer
    ones from the traced rounds plus `trace.overhead_s`, the difference of
    the two kinds' median round times. Returns the result object, a record
    of every round and the traced rounds' spans.
    """
    speed = HostSpeed()
    workload = Workload(FULL[name] if config is None else config, seed, out_dir, speed)
    speed.start()
    try:
        rounds, round_spans = _rounds(workload, seconds, trace)
    finally:
        speed.stop()
    for rnd in rounds:
        _settle(rnd, speed)

    plain = [r for r in rounds if not r.traced]
    spans: list = []
    if trace:
        per_round = []
        for r, recorded in zip(rounds, round_spans):
            if not r.traced:
                continue
            tab = SpanTable(recorded, speed.seconds)
            per_round.append(workload.layers(tab, r, plain))
            spans.append({"round": r.index, "summary": tab.summary(), "spans": tab.dump()})
        metrics = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        metrics["trace.overhead_s"] = (
            statistics.median(r.round_s for r in rounds if r.traced)
            - statistics.median(r.round_s for r in plain)
        )
    else:
        metrics = workload.metrics(plain)
    # Metrics not declared are the per-scheme times of a non-default config.
    units = {k: v[0] for k, v in {**END_TO_END, **PER_LAYER}.items()}
    result = {
        "correct": not workload.problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {k: {"value": v, "unit": units.get(k, "s")} for k, v in metrics.items()},
    }
    detail = {
        "workload": name,
        "seed": seed,
        "problems": workload.problems[:50],
        "host_speed": {
            "samples": len(speed.took),
            "kernel_ms": [
                1000 * q for q in statistics.quantiles(speed.took, n=10)
            ] if len(speed.took) > 1 else speed.took,
        },
        "rounds": [
            {"index": r.index, "traced": r.traced, "round_s": r.round_s, "wall_s": r.wall_s,
             "values": r.values, "stages": r.stages}
            for r in rounds
        ],
    }
    return result, detail, spans
