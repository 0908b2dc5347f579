"""The three in-process workloads: one caller, a closed loop of ops.

Each workload builds its inputs from the run seed, sets itself up from
nothing (``setup`` returns the seconds to the first correct answer), and
runs one op per ``op(i)`` call, recording latencies and checking every
answer against truth computed from the generated data.
"""

from __future__ import annotations

import time

import numpy as np

import oracle
from harness import Record

ATTRIBUTES = ("arrival_delay", "departure_delay", "elapsed_time")
DELTA = 0.05


def flights_sql(attribute: str) -> str:
    return f"SELECT carrier, AVG({attribute}) FROM flights GROUP BY carrier"


def flights_columns(rows: int, seed: int) -> dict[str, np.ndarray]:
    """A flights table: the repository's per-carrier delay and elapsed-time
    model (:mod:`repro.data.flights`), with each carrier's row count fixed
    at its traffic share and only the row order and values drawn from
    ``seed``.  Fixed counts keep the cost of a query the same from seed to
    seed; a multinomial draw moves the biggest carrier's count, and with it
    the number of sampling rounds, by ~10% on small tables."""
    from repro.data.flights import CARRIERS, FLIGHT_ATTRIBUTES

    rng = np.random.default_rng(seed)
    codes = [code for code, _ in CARRIERS]
    share = np.array([s for _, s in CARRIERS])
    exact = rows * share / share.sum()
    counts = np.maximum(np.floor(exact).astype(int), 1)
    for i in np.argsort(counts - exact)[: max(rows - counts.sum(), 0)]:
        counts[i] += 1
    carrier_ids = rng.permutation(np.repeat(np.arange(len(codes)), counts))
    columns = {"carrier": np.array(codes, dtype="U2")[carrier_ids]}
    for attribute in ATTRIBUTES:
        means, c, spread = FLIGHT_ATTRIBUTES[attribute]
        mu = np.array([means[code] for code in codes])[carrier_ids]
        columns[attribute] = np.clip(rng.normal(mu, spread * 0.7), 0.0, c)
    return columns


def flights_truth(columns: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
    return {a: oracle.exact_means(columns["carrier"], columns[a]) for a in ATTRIBUTES}


def check_answer(rec: Record, result, truth: dict[str, float], population: int,
                 mode: dict | None = None) -> bool:
    """Shape checks (a failure) then the guarantee check (a misorder)."""
    agg = result.first
    estimates = agg.estimates()
    error = oracle.check_shape(estimates, truth)
    if error is not None:
        rec.fail(error)
        return False
    mode = mode or {"kind": "ordering"}
    rec.answer(
        oracle.misordered(mode, estimates, truth, list(agg.labels)),
        result.total_samples,
        population,
    )
    return True


class Workload:
    """Base: seeded inputs, timed set-up, one op per call.

    ``scale`` shrinks the datasets of workloads that have a table.
    """

    name = ""

    def __init__(self, seed: int, scale: float, rec: Record) -> None:
        self.rng = np.random.default_rng(seed)
        self.rec = rec
        self.session = None

    def query_seed(self) -> int:
        return int(self.rng.integers(0, 2**31 - 1))

    def connect(self):
        raise NotImplementedError

    def first_answer(self):
        """Run the set-up's first query and return its checks."""
        raise NotImplementedError

    def setup(self) -> float:
        """Fresh session to first correct answer, in seconds."""
        self.close()
        before = self.rec.failed
        t0 = time.perf_counter()
        self.session = self.connect()
        check = self.first_answer()
        elapsed = time.perf_counter() - t0
        check()
        if self.rec.failed != before:
            raise RuntimeError(f"{self.name}: set-up answer failed its checks")
        return elapsed

    def op(self, i: int):
        """Run op ``i`` and return its checks, which run off the clock."""
        raise NotImplementedError

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None


class FlightsAdhoc(Workload):
    """Ad-hoc dashboard queries on plain ``connect()``: every op rebuilds
    the NEEDLETAIL index and IFOCUS reads most of the rows."""

    name = "flights_adhoc"

    def __init__(self, seed: int, scale: float, rec: Record) -> None:
        super().__init__(seed, scale, rec)
        self.rows = max(int(100_000 * scale), 2_000)
        self.columns = flights_columns(self.rows, self.query_seed())
        self.truth = flights_truth(self.columns)

    def connect(self):
        import repro

        session = repro.connect(delta=DELTA)
        session.attach("flights", self.columns)
        return session

    def _run(self, attribute: str):
        seed = self.query_seed()
        self.rec.attempted += 1
        t0 = time.perf_counter()
        result = self.session.sql(flights_sql(attribute)).run(seed=seed)
        self.rec.latency("query", time.perf_counter() - t0)
        return lambda: check_answer(self.rec, result, self.truth[attribute], self.rows)

    def first_answer(self):
        return self._run(ATTRIBUTES[0])

    def op(self, i: int):
        return self._run(ATTRIBUTES[i % len(ATTRIBUTES)])


def stratified_mixture(k: int, total_size: int, seed: int, c: float = 100.0,
                       lo: float = 20.0, hi: float = 80.0):
    """The paper's mixture-of-truncated-normals family with group means
    stratified over [lo, hi].

    The paper draws each group's components uniformly; the hardest
    adjacent pair then varies by orders of magnitude from seed to seed, and
    with it the cost of a query.  Placing the k means on an even grid (in a
    seeded order, with seeded jitter and component shapes) keeps every seed
    equally hard, so runs with different seeds measure the same regime.
    """
    from repro.data.distributions import Mixture, TruncatedNormal
    from repro.data.population import Population, VirtualGroup

    rng = np.random.default_rng(seed)
    centers = np.linspace(lo, hi, k)[rng.permutation(k)]
    groups = []
    for i in range(k):
        mu = centers[i] + rng.uniform(-0.25, 0.25)
        offsets = rng.normal(0.0, 3.0, 2)
        offsets -= offsets.mean()
        comps = [TruncatedNormal(mu + o, float(rng.uniform(2.0, 6.0)), 0.0, c) for o in offsets]
        groups.append(VirtualGroup(f"g{i:02d}", Mixture(comps), total_size // k))
    return Population(groups=groups, c=c, name=f"stratified-mixture(k={k})")


class SyntheticSparse(Workload):
    """The paper's synthetic regime: virtual groups, no rows in memory, so
    every op is the IFOCUS loop alone and samples are a sliver of N."""

    name = "synthetic_sparse"
    K = 16
    TOTAL = 10**9

    def __init__(self, seed: int, scale: float, rec: Record) -> None:
        super().__init__(seed, scale, rec)
        self.params = dict(k=self.K, total_size=self.TOTAL, seed=self.query_seed())
        pop = stratified_mixture(**self.params)
        self.truth = {g.name: float(g.true_mean) for g in pop.groups}

    def connect(self):
        import repro

        session = repro.connect(delta=DELTA, engine="memory")
        session.attach(
            "synthetic",
            repro.SourceSpec("synthetic", family=stratified_mixture, **self.params),
        )
        return session

    def _run(self):
        import repro

        seed = self.query_seed()
        self.rec.attempted += 1
        t0 = time.perf_counter()
        result = (
            self.session.table("synthetic").group_by("g").agg(repro.avg("value")).run(seed=seed)
        )
        self.rec.latency("query", time.perf_counter() - t0)
        return lambda: check_answer(self.rec, result, self.truth, self.TOTAL)

    def first_answer(self):
        return self._run()

    def op(self, i: int):
        return self._run()


#: Guarantee variants the live workload rotates over: builder call, oracle mode.
VARIANTS = (
    (lambda q: q.top(3), {"kind": "top", "t": 3}),
    (lambda q: q.trends(), {"kind": "trends"}),
    (lambda q: q.values(within=2.0), {"kind": "values", "within": 2.0}),
    (lambda q: q.mistakes(0.9), {"kind": "mistakes", "fraction": 0.9}),
)


class FlightsLive(Workload):
    """Progressive and variant answers: ``.stream()``, guarantee variants,
    and a sliding-window subscription replaying a chunked event stream -
    the only workload through the reference loop and ``repro.streaming``."""

    name = "flights_live"
    WINDOW, EVERY = 200, 100  # rows; each chunk of EVERY rows closes a window
    WINDOWS = 3

    def __init__(self, seed: int, scale: float, rec: Record) -> None:
        super().__init__(seed, scale, rec)
        self.rows = max(int(400 * scale), 200)
        self.columns = flights_columns(self.rows, self.query_seed())
        self.truth = flights_truth(self.columns)
        event_rows = self.WINDOW + (self.WINDOWS - 1) * self.EVERY
        self.events = flights_columns(event_rows, self.query_seed())
        self.window_truth = {
            a: [
                oracle.exact_means(
                    self.events["carrier"][w * self.EVERY: w * self.EVERY + self.WINDOW],
                    self.events[a][w * self.EVERY: w * self.EVERY + self.WINDOW],
                )
                for w in range(self.WINDOWS)
            ]
            for a in ATTRIBUTES
        }
        self.pulled: dict[int, float] = {}

    def _chunks(self):
        n = len(self.events["carrier"])
        for j, lo in enumerate(range(0, n, self.EVERY)):
            self.pulled[j] = time.perf_counter()
            yield {k: v[lo: lo + self.EVERY] for k, v in self.events.items()}

    def connect(self):
        import repro
        from repro.catalog import IteratorSource

        session = repro.connect(delta=DELTA)
        session.attach("flights", self.columns)
        session.attach("events", IteratorSource(self._chunks))
        return session

    def _variant(self, i: int):
        make, mode = VARIANTS[i % len(VARIANTS)]
        attribute = ATTRIBUTES[i % len(ATTRIBUTES)]
        seed = self.query_seed()
        self.rec.attempted += 1
        t0 = time.perf_counter()
        result = make(self.session.sql(flights_sql(attribute))).run(seed=seed)
        self.rec.latency("query", time.perf_counter() - t0)
        return lambda: check_answer(self.rec, result, self.truth[attribute], self.rows, mode)

    def _stream(self, i: int):
        attribute = ATTRIBUTES[i % len(ATTRIBUTES)]
        seed = self.query_seed()
        self.rec.attempted += 1
        t0 = time.perf_counter()
        stream = self.session.sql(flights_sql(attribute)).stream(seed=seed)
        first = None
        for _update in stream:
            if first is None:
                first = time.perf_counter() - t0
        self.rec.latency("stream", time.perf_counter() - t0)
        self.rec.latency("first_bar", first)

        def check() -> None:
            result = stream.result
            if not check_answer(self.rec, result, self.truth[attribute], self.rows):
                return
            ran = self.session.sql(flights_sql(attribute)).run(seed=seed).first.raw
            error = oracle.same_run(
                result.first.raw.samples_per_group, result.first.raw.estimates,
                ran.samples_per_group, ran.estimates,
            )
            if error is not None:
                self.rec.fail(error)

        return check

    def _replay(self, i: int):
        import repro

        attribute = ATTRIBUTES[i % len(ATTRIBUTES)]
        seed = self.query_seed()
        self.rec.attempted += 1
        query = (
            self.session.table("events")
            .group_by("carrier")
            .agg(repro.avg(attribute))
            .on_engine("memory")
            .window(self.WINDOW, every=self.EVERY)
        )
        self.pulled.clear()
        windows = []
        # Results only, as a dashboard consumes them: per-group updates would
        # add a second worker thread and ~20 thread hand-offs per window.
        subscription = query.subscribe(seed=seed, max_windows=self.WINDOWS, emit_updates=False)
        try:
            for window in subscription.results():
                arrived = time.perf_counter()
                closing_chunk = (window.window.index * self.EVERY + self.WINDOW) // self.EVERY - 1
                self.rec.latency("window", arrived - self.pulled[closing_chunk])
                windows.append(window)
        finally:
            subscription.cancel()
            subscription.join(timeout=30)

        def check() -> None:
            if len(windows) != self.WINDOWS:
                self.rec.fail(f"subscription closed {len(windows)} windows, expected {self.WINDOWS}")
            for window in windows:
                self.rec.warm.append(bool(window.warm_start))
                truth = self.window_truth[attribute][window.window.index]
                check_answer(self.rec, window.result, truth, window.rows)

        return check

    def first_answer(self):
        return self._variant(0)

    def op(self, i: int):
        kind, turn = i % 3, i // 3
        return (self._stream, self._variant, self._replay)[kind](turn)


WORKLOADS = {cls.name: cls for cls in (FlightsAdhoc, SyntheticSparse, FlightsLive)}


def closed_loop(workload: Workload, seconds: float, tracer=None, first_op: int = 0) -> int:
    """One caller: the next op starts when the previous one returns.

    Returns the number of ops started.  Only the ops are on the clock
    (``rec.busy_s``, and the root span named ``op`` a ``tracer`` records
    for each); their checks run between ops.
    """
    rec = workload.rec
    stop = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < stop:
        root = token = None
        if tracer is not None:
            tracer.current_op = first_op + i
            root = tracer.begin("op", op=first_op + i)
            token = tracer.push(root)
        t0 = time.perf_counter()
        check = None
        try:
            check = workload.op(i)
        except Exception as exc:  # an op that raises is a failed op
            rec.fail(f"{type(exc).__name__}: {exc}")
        finally:
            rec.busy_s += time.perf_counter() - t0
            if tracer is not None:
                tracer.pop(token)
                tracer.end(root)
                tracer.current_op = None
        if check is not None:
            rec.completed += 1
            try:
                check()
            except Exception as exc:
                rec.fail(f"check raised {type(exc).__name__}: {exc}")
        i += 1
    return i
