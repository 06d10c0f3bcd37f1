"""The four benchmark workloads.

Each workload turns ``--seed`` into its inputs up front (untimed), then
makes a pass of ops, which the launcher replays.  An op is one call into gsteer's public API, timed
from outside the call, plus a check of its result against an independent
reference from ``reference.py``.  gsteer functions are always looked up on
their module at call time, so the tracer's patches take effect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import gsteer.channels
import gsteer.cli
import gsteer.dynamics
import gsteer.fixtures
import gsteer.states
import gsteer.steering
import gsteer.verify

import reference as ref

FIXTURES = (gsteer.fixtures.STATE_SHEAR_WITNESS, gsteer.fixtures.CHANNEL_SHEAR_LOCAL,
            gsteer.fixtures.CHANNEL_NONCERT_BONAFIDE,
            gsteer.fixtures.CHANNEL_NONCERT_UNSTEERABLE)


def load_fixtures():
    """Load the four bundled fixtures through gsteer (part of set-up)."""
    fx = gsteer.fixtures
    return ([fx.load_state(FIXTURES[0])]
            + [fx.load_channel(name) for name in FIXTURES[1:]])


@dataclass
class Op:
    kind: str
    key: int  # position in its pass; replays of a pass repeat each key's inputs
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]  # problems found; empty when correct
    # set on ops that fail on a documented defect of the program: they count
    # as failed ops, but do not make the run incorrect
    known_defect: str | None = None
    size: int = 1  # samples, trials or points the op covers, for per-unit counts


class Workload:
    name: str

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self._seen: dict[int, bytes] = {}
        self._digest = hashlib.sha256()
        self.samples = 0  # SampleReport totals, for the accept ratio
        self.draws = 0

    @classmethod
    def warmup(cls) -> None:
        """One op on the bundled fixtures only, as run by the set-up probe."""
        raise NotImplementedError

    def reset(self) -> None:
        """Restore the state the first pass starts from (shared Generators)."""

    def generators(self) -> list[np.random.Generator]:
        """Generators the ops draw from, restored before a pass is replayed."""
        return []

    def make_pass(self) -> list[Op]:
        raise NotImplementedError

    def digest(self) -> str | None:
        """SHA-256 over the outputs of the first pass, if the workload checks
        its outputs byte for byte."""
        return self._digest.hexdigest() if self._seen else None

    def _same_bytes(self, key: int, data: bytes) -> list[str]:
        """Fold first-seen output into the digest; later runs of the same
        input must give the same bytes."""
        h = hashlib.sha256(data).digest()
        first = self._seen.setdefault(key, h)
        if first is h:
            self._digest.update(data)
            return []
        return [] if first == h else ["output bytes differ from an earlier run of this input"]


# ---------------------------------------------------------------------------
# cli_files

def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gsteer.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _kv_lines(text: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)


def _close(got: float, want: float, rel: float = 1e-8) -> bool:
    return abs(got - want) <= rel * max(1.0, abs(want))


@dataclass
class StateDoc:
    path: str
    status: str  # "valid", "nonbona" (exit 3) or "malformed" (exit 2)
    modes_a: int = 0
    modes_b: int = 0
    cov: np.ndarray | None = None
    mean: np.ndarray | None = None
    ref_j: tuple[float, float] | None = None  # closed-form (j1, j2)
    known_unsteerable: bool | None = None
    known_j2: tuple[float, float] | None = None  # (value, tolerance)
    known_defect: str | None = None  # defect shown by ``quantify`` on this doc


@dataclass
class ChannelDoc:
    path: str
    status: str
    modes_a: int = 0
    modes_b: int = 0
    K: np.ndarray | None = None
    M: np.ndarray | None = None
    dbar: np.ndarray | None = None
    known: dict[str, bool] | None = None


WITNESS_DEFECT = ("tolerance-band witness: verdict steerable but j1 = j2 = 0 "
                  "(verdict and clamp use different thresholds)")


class CliFiles(Workload):
    """In-process ``gsteer.cli.main`` over a seeded pool of documents."""

    name = "cli_files"
    PARTITIONS = ((1, 1), (1, 2), (2, 2), (3, 3))
    NU_MAX = (1.2, 1.5, 2.0, 3.0)  # one random state each: a mix of verdicts

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        self.states: list[StateDoc] = []
        self.channels: list[ChannelDoc] = []
        for ma, mb in self.PARTITIONS:
            n = ma + mb
            for nu_max in self.NU_MAX:
                self._state(ma, mb, ref.random_cov(n, nu_max, rng))
            for _ in range(2):
                gammas = rng.uniform(1.05, 3.0, min(ma, mb))
                self._state(ma, mb, ref.schmidt_cov(ma, mb, gammas),
                            ref_j=ref.j_closed_schmidt(ma, mb, gammas))
            for gain, unsteerable in ((0.5 / n, True), (1.0, False)):
                k, m = ref.random_channel(ma, mb, rng, gain, unsteerable)
                self._channel(ma, mb, k, m, rng.uniform(-1.0, 1.0, 2 * n))
        for sign, steerable in ((1.0, False), (-1.0, True), (-1.0, False)):
            a, b, c, d = ref.random_standard_form(rng, sign, steerable)
            self._state(1, 1, ref.standard_form_cov(a, b, c, d),
                        ref_j=ref.j_closed_standard(a, b, c))
        witness = np.eye(6)
        witness[:4, :4] = ref.standard_form_cov(5.0, 5.0, 4.472135965565, -4.472135965565)
        self._state(1, 2, witness, known_defect=WITNESS_DEFECT)
        for ma, mb in ((1, 1), (2, 2)):
            self._state(ma, mb, 0.4 * ref.random_cov(ma + mb, 1.5, rng), status="nonbona")
        self._state(1, 1, ref.random_cov(2, 2.0, rng), status="malformed")
        k, m = ref.random_channel(1, 1, rng, 0.25, True)
        self._channel(1, 1, k, m, np.zeros(4), status="malformed")
        self._bundled_fixtures()

        by_partition: dict[tuple[int, int], list[ChannelDoc]] = {}
        for ch in self.channels:
            if ch.status == "valid":
                by_partition.setdefault((ch.modes_a, ch.modes_b), []).append(ch)
        pairs = []
        for st in self.states:
            options = by_partition[(st.modes_a, st.modes_b)]
            pairs.append((options[rng.integers(len(options))], st))
        bad_channel = next(c for c in self.channels if c.status == "malformed")
        pairs.append((bad_channel, self.states[0]))

        self.lists = {
            "check": [self.states[i] for i in rng.permutation(len(self.states))],
            "quantify": [self.states[i] for i in rng.permutation(len(self.states))],
            "classify": [self.channels[i] for i in rng.permutation(len(self.channels))],
            "apply": [pairs[i] for i in rng.permutation(len(pairs))],
        }

    # -- pool construction -------------------------------------------------
    def _write(self, text: str) -> str:
        path = os.path.join(self.workdir, f"doc{len(self.states) + len(self.channels):03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def _state(self, ma, mb, cov, status="valid", **known):
        mean = np.zeros(cov.shape[0])
        text = json.dumps({"modes_a": ma, "modes_b": mb, "cov": cov.tolist(),
                           "mean": mean.tolist()}, indent=2)
        if status == "malformed":
            text = text[: len(text) // 2]
        self.states.append(StateDoc(self._write(text), status, ma, mb, cov, mean, **known))

    def _channel(self, ma, mb, k, m, dbar, status="valid"):
        text = json.dumps({"modes_a": ma, "modes_b": mb, "K": k.tolist(),
                           "M": m.tolist(), "dbar": dbar.tolist()}, indent=2)
        if status == "malformed":
            text = text[: len(text) // 2]
        self.channels.append(ChannelDoc(self._write(text), status, ma, mb, k, m, dbar))

    def _bundled_fixtures(self):
        root = os.path.dirname(gsteer.fixtures.__file__)
        path = os.path.join(root, gsteer.fixtures.STATE_SHEAR_WITNESS)
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        self.states.append(StateDoc(path, "valid", 1, 1, np.array(doc["cov"]),
                                    np.array(doc["mean"]), known_unsteerable=False,
                                    known_j2=(0.0148, 5e-4)))
        known = {
            gsteer.fixtures.CHANNEL_SHEAR_LOCAL: {
                "valid_gaussian": True, "unsteerable": True, "steering_breaking": False},
            gsteer.fixtures.CHANNEL_NONCERT_BONAFIDE: {"valid_gaussian": False},
            gsteer.fixtures.CHANNEL_NONCERT_UNSTEERABLE: {
                "valid_gaussian": True, "unsteerable": False},
        }
        for name, verdicts in known.items():
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            self.channels.append(ChannelDoc(path, "valid", doc["modes_a"], doc["modes_b"],
                                            np.array(doc["K"]), np.array(doc["M"]),
                                            np.array(doc["dbar"]), known=verdicts))

    # -- ops ---------------------------------------------------------------
    @classmethod
    def warmup(cls) -> None:
        root = os.path.dirname(gsteer.fixtures.__file__)
        run_cli(["quantify", os.path.join(root, gsteer.fixtures.STATE_SHEAR_WITNESS)])

    def make_pass(self) -> list[Op]:
        """Every document once per command, the commands taken in turn."""
        ops = []
        for i in range(max(len(v) for v in self.lists.values())):
            for kind, docs in self.lists.items():
                if i < len(docs):
                    ops.append(self._op(kind, docs[i], len(ops)))
        return ops

    def _op(self, kind: str, doc, key: int) -> Op:
        if kind == "check":
            argv, status = ["check", doc.path], doc.status
        elif kind == "quantify":
            argv, status = ["quantify", doc.path], doc.status
        elif kind == "classify":
            argv, status = ["channel", doc.path, "--classify"], doc.status
        else:
            ch, st = doc
            argv = ["channel", ch.path, st.path]
            status = "malformed" if "malformed" in (ch.status, st.status) else "valid"
        want_code = {"valid": 0, "nonbona": 3 if kind in ("check", "quantify") else 0,
                     "malformed": 2}[status]

        def check(result):
            code, out, _err = result
            problems = self._same_bytes(key, f"{code}\n".encode() + out.encode())
            if code != want_code:
                return problems + [f"{argv[0]}: exit {code}, expected {want_code}"]
            if code == 0 or (kind == "check" and code == 3):
                problems += getattr(self, f"_check_{kind}")(doc, result)
            return problems

        defect = doc.known_defect if kind == "quantify" else None
        return Op(kind, key, lambda: run_cli(argv), check, defect)

    @staticmethod
    def _steering_problems(doc: StateDoc, unsteerable: bool) -> list[str]:
        if doc.known_unsteerable is not None and unsteerable != doc.known_unsteerable:
            return [f"unsteerable={unsteerable}, fixture verdict {doc.known_unsteerable}"]
        lo, hi = ref.schur_margin(doc.cov, doc.modes_a)
        if ref.decided(lo, hi) and unsteerable != (lo >= 0):
            return [f"unsteerable={unsteerable}, Schur-complement margin {lo:.3e}"]
        return []

    def _check_check(self, doc: StateDoc, result) -> list[str]:
        _code, out, _err = result
        got = _kv_lines(out)
        problems = []
        lo, hi = ref.bona_fide_margin(doc.cov)
        bona = got.get("bona_fide") == "true"
        if ref.decided(lo, hi) and bona != (lo >= 0):
            problems.append(f"bona_fide={bona}, reference margin {lo:.3e}")
        if not _close(float(got["bona_fide_min_eigenvalue"]), lo, 1e-8 * max(1.0, abs(hi))):
            problems.append("bona fide margin differs from reference")
        if doc.status == "valid":
            problems += self._steering_problems(doc, got.get("unsteerable") == "true")
            slo, shi = ref.margin(ref.steering_matrix(doc.cov, doc.modes_a))
            if not _close(float(got["steering_min_eigenvalue"]), slo, 1e-8 * max(1.0, abs(shi))):
                problems.append("steering margin differs from reference")
        return problems

    def _check_quantify(self, doc: StateDoc, result) -> list[str]:
        rep = json.loads(result[1])
        unst, j1, j2 = rep["unsteerable"], rep["j1"], rep["j2"]
        problems = self._steering_problems(doc, unst)
        if not unst == (j1 == 0.0) == (j2 == 0.0):
            problems.append(f"not faithful: unsteerable={unst}, j1={j1!r}, j2={j2!r}")
        if doc.ref_j is not None and not (_close(j1, doc.ref_j[0]) and _close(j2, doc.ref_j[1])):
            problems.append(f"j=({j1!r}, {j2!r}), closed form {doc.ref_j}")
        if doc.known_j2 is not None and abs(j2 - doc.known_j2[0]) > doc.known_j2[1]:
            problems.append(f"j2={j2!r}, fixture value {doc.known_j2[0]}")
        return problems

    def _check_classify(self, doc: ChannelDoc, result) -> list[str]:
        got = json.loads(result[1])
        problems = []
        for name, (lo, hi) in ref.channel_certificates(doc.K, doc.M, doc.modes_a).items():
            verdict = got[name]["verdict"]
            if doc.known and name in doc.known and verdict != doc.known[name]:
                problems.append(f"{name}={verdict}, fixture verdict {doc.known[name]}")
            elif ref.decided(lo, hi) and verdict != (lo >= 0):
                problems.append(f"{name}={verdict}, reference margin {lo:.3e}")
        return problems

    def _check_apply(self, pair, result) -> list[str]:
        ch, st = pair
        _code, out, err = result
        doc = json.loads(out)
        cov = ch.K @ st.cov @ ch.K.T + ch.M
        cov = (cov + cov.T) / 2.0
        problems = []
        got = np.array(doc["cov"])
        if np.abs(got - cov).max() > 1e-12 * max(1.0, np.abs(cov).max()):
            problems.append("output cov differs from K cov K^T + M")
        mean = ch.K @ st.mean + ch.dbar
        if np.abs(np.array(doc["mean"]) - mean).max() > 1e-12 * max(1.0, np.abs(mean).max()):
            problems.append("output mean differs from K mean + dbar")
        lo, hi = ref.bona_fide_margin(cov)
        bona = _kv_lines(err).get("output_bona_fide") == "true"
        if ref.decided(lo, hi) and bona != (lo >= 0):
            problems.append(f"output_bona_fide={bona}, reference margin {lo:.3e}")
        return problems


# ---------------------------------------------------------------------------
# montecarlo

class MonteCarlo(Workload):
    """``sample_verify`` chunks on the two non-certified fixture channels."""

    name = "montecarlo"
    # (predicate, fixture, seed offset as in paper_suite)
    PAIRINGS = (("bona-fide", gsteer.fixtures.CHANNEL_NONCERT_BONAFIDE, 0),
                ("unsteerable-preserving", gsteer.fixtures.CHANNEL_NONCERT_UNSTEERABLE, 1))
    # Samples per op, the same on every seed.  A spread of sizes gives a broad
    # latency distribution whose median moves smoothly when the machine's
    # speed drifts, instead of jumping between two tight clusters; many small
    # chunks give enough ops per pass for a tail percentile.
    CHUNKS = tuple(range(5, 41))

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.channel_objs = [gsteer.fixtures.load_channel(p[1]) for p in self.PAIRINGS]
        self.reset()

    def reset(self) -> None:
        # one Generator per pairing, shared by its chunks, so the draws equal
        # those of one ``gsteer sample --n N --seed S`` call
        self.rngs = [np.random.default_rng(self.seed + p[2]) for p in self.PAIRINGS]

    def generators(self) -> list[np.random.Generator]:
        return self.rngs

    @classmethod
    def warmup(cls) -> None:
        gsteer.channels.sample_verify(gsteer.fixtures.load_channel(cls.PAIRINGS[0][1]),
                                      1, 0, "bona-fide")

    def make_pass(self) -> list[Op]:
        ops = []
        for n in self.CHUNKS:
            for (predicate, _fixture, _offset), ch, rng in zip(
                    self.PAIRINGS, self.channel_objs, self.rngs):
                def call(ch=ch, rng=rng, n=n, predicate=predicate):
                    return gsteer.channels.sample_verify(ch, n, rng, predicate)

                def check(rep, n=n, predicate=predicate):
                    self.samples += rep.n_samples
                    self.draws += rep.draws
                    problems = []
                    if rep.n_samples != n or rep.draws < n:
                        problems.append(f"{rep.n_samples} samples in {rep.draws} draws, "
                                        f"asked {n}")
                    if predicate == "bona-fide" and rep.draws != n:
                        problems.append(f"bona-fide sampling rejected draws ({rep.draws})")
                    # both fixtures preserve their predicate on every sampled input
                    if rep.violations != 0 or not rep.worst_margin >= -1e-8:
                        problems.append(f"{rep.violations} violations, worst margin "
                                        f"{rep.worst_margin:.3e}")
                    return problems

                ops.append(Op(predicate, len(ops), call, check, size=n))
        return ops


# ---------------------------------------------------------------------------
# paper_curves

class PaperCurves(Workload):
    """The paper's figure computations: sweeps, first passages, bound chain
    and the fidelity-bound grid."""

    name = "paper_curves"
    # Inputs of each kind per pass.  Sweeps and first passages are the
    # slowest ops, and a passage's cost depends on its bath; there are few
    # enough of them that op_p50_ms and op_tail_ms fall among the bound
    # chains and grids, whose cost is the same on every seed.
    N_SWEEPS = 4
    N_PASSAGES = 4
    N_EACH = 12  # bound chains and grids
    T_GRID = np.arange(0.0, 60.0 + 1e-9, 0.1)  # 601 points
    GRID_N = 20  # grid size of n3_bound_grid
    CHAIN_POINTS = 150  # plus r = 1, where the bound chain is an equality

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        bath = gsteer.dynamics.BathParameters
        self.r0 = 1.0
        self.state0 = gsteer.states.squeezed_vacuum_state(self.r0)
        self.cov0 = ref.squeezed_vacuum_cov(self.r0)
        self.sweep_baths = [bath(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.5),
                                 rng.uniform(0.0, 2 * np.pi), rng.uniform(0.05, 0.2))
                            for _ in range(self.N_SWEEPS)]
        # strong baths, as in the paper's decay orderings: the passage below
        # j2 = 0.01 comes at t ~ 0.1-0.4, i.e. 100-400 evolve calls.  One draw
        # per stratum of R in [2, 2.4] and of n_th in [5, 10] keeps the total
        # cost of a pass nearly the same on every seed.
        half = self.N_PASSAGES // 2
        strata = (np.arange(half) + rng.random(half)) / half
        self.passage_baths = ([bath(0.0, 2.0 + 0.4 * u, 0.0, 0.1) for u in strata]
                              + [bath(5.0 + 5.0 * u, 0.5, 0.0, 0.1) for u in strata])
        self.chain_rs = [np.append(1.0, np.sort(rng.uniform(1.0, 10.0, self.CHAIN_POINTS)))
                         for _ in range(self.N_EACH)]
        self.grid_rs = rng.uniform(1.5, 6.0, self.N_EACH).tolist()

    @classmethod
    def warmup(cls) -> None:
        gsteer.dynamics.sweep(gsteer.states.squeezed_vacuum_state(1.0),
                              gsteer.dynamics.BathParameters(0.0, 1.0, 10.0, 0.1), [0.0, 0.1])

    def _cov_t(self, bath, t: float) -> np.ndarray:
        w = np.exp(-bath.lam * t)
        return w * self.cov0 + (1.0 - w) * ref.bath_stationary_cov(bath.n_th, bath.R, bath.phi)

    def make_pass(self) -> list[Op]:
        ops = []
        for i in range(self.N_EACH):
            for kind in ("sweep", "passage", "chain", "grid")[
                    (i >= self.N_SWEEPS) + (i >= self.N_PASSAGES):]:
                ops.append(getattr(self, f"_{kind}_op")(i, len(ops)))
        return ops

    def _sweep_op(self, i: int, key: int) -> Op:
        bath = self.sweep_baths[i]

        def check(traj):
            problems = self._same_bytes(key, traj.to_csv().encode())
            vals, bounds = traj.j2_values, traj.bound_values
            start = ref.j2_initial_squeezed(self.r0)
            if vals.size != self.T_GRID.size:
                return problems + [f"{vals.size} points, expected {self.T_GRID.size}"]
            if not (_close(vals[0], start, 1e-9) and _close(bounds[0], start, 1e-9)):
                problems.append(f"j2(0)={vals[0]!r}, closed form {start!r}")
            if np.any(vals > bounds + 1e-9):
                problems.append("j2 exceeds its decay envelope")
            for k in (150, 300, 600):
                cov = self._cov_t(bath, self.T_GRID[k])
                if abs(vals[k] - ref.j2_from_cov(cov, 1)) > 2e-9 * np.trace(cov) + 1e-12:
                    problems.append(f"j2(t={self.T_GRID[k]:g}) differs from reference")
            return problems

        return Op("sweep", key, lambda: gsteer.dynamics.sweep(self.state0, bath, self.T_GRID),
                  check, size=self.T_GRID.size)

    def _passage_op(self, i: int, key: int) -> Op:
        bath, threshold, dt = self.passage_baths[i], 0.01, 1e-3

        def check(t):
            if not np.isfinite(t):
                return ["no passage before t_max"]
            # 1e-8 absorbs rounding differences between the two eigensolves
            now = ref.j2_from_cov(self._cov_t(bath, t), 1)
            if now >= threshold + 1e-8:
                return [f"j2({t:g}) = {now:.6g} is not below {threshold}"]
            if t > 0:
                before = ref.j2_from_cov(self._cov_t(bath, t - dt), 1)
                if before < threshold - 1e-8:
                    return [f"j2 already below {threshold} at t = {t - dt:g}"]
            return []

        return Op("passage", key, lambda: gsteer.verify.first_passage_time(
            self.state0, bath, threshold, 10.0, dt), check)

    def _chain_op(self, i: int, key: int) -> Op:
        rs = self.chain_rs[i]
        st = gsteer.steering

        def call():
            return [(st.j2(st.pure_family_state(r)), st.n3_upper_bound_pure(r)) for r in rs]

        def check(pairs):
            for r, (j2, z) in zip(rs, pairs):
                closed = ref.j_closed_schmidt(1, 1, [r])[1]
                if not _close(j2, closed, 1e-9):
                    return [f"j2({r:g}) = {j2!r}, closed form {closed!r}"]
                if not _close(z, ref.n3_closed_bound(r), 1e-12):
                    return [f"z({r:g}) = {z!r}"]
                if r == 1.0 and abs(j2 - z) > 1e-9:
                    return [f"bound chain not tight at r = 1: {j2!r} vs {z!r}"]
                if r > 1.0 and j2 - z <= 1e-9:
                    return [f"bound chain violated at r = {r:g}: j2 {j2!r} <= z {z!r}"]
            return []

        return Op("chain", key, call, check, size=rs.size)

    def _grid_op(self, i: int, key: int) -> Op:
        r = self.grid_rs[i]

        def check(v):
            top = ref.j_closed_schmidt(1, 1, [r])[1] + 1e-6
            return [] if 0.0 <= v <= top else [f"n3 grid bound {v!r} outside [0, {top!r}]"]

        return Op("grid", key, lambda: gsteer.steering.n3_bound_grid(r, self.GRID_N), check)


# ---------------------------------------------------------------------------
# properties

class Properties(Workload):
    """The trial engines behind ``gsteer verify --suite properties``."""

    name = "properties"
    # (check name, engine, leading args, seed offset as in properties_suite)
    ENGINES = (
        ("faithfulness-1p1", "faithfulness_trials", (1, 1), 0),
        ("faithfulness-1p2", "faithfulness_trials", (1, 2), 1),
        ("upward-closure", "upward_closure_trials", (), 2),
        ("local-channels-unsteerable", "local_channel_trials", (), 3),
        ("certified-channels-preserve", "certified_channel_trials", (), 4),
        ("local-symplectic-verdict", "local_symplectic_trials", (), 5),
        ("mixture-bounds", "mixture_bound_trials", (), 6),
        ("orthogonal-monotonicity", "orthogonal_monotonicity_trials", (), 7),
    )
    # Trials per op, the same on every seed.  Even, because two engines
    # alternate partitions by trial index; spread for a broad latency
    # distribution, as in MonteCarlo.
    CHUNKS = (2, 4, 6, 8, 10, 12, 14, 16)

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.reset()

    def reset(self) -> None:
        self.rngs = [np.random.default_rng(self.seed + e[3]) for e in self.ENGINES]

    def generators(self) -> list[np.random.Generator]:
        return self.rngs

    @classmethod
    def warmup(cls) -> None:
        gsteer.verify.faithfulness_trials(1, 1, 2, 0)

    def make_pass(self) -> list[Op]:
        ops = []
        for n in self.CHUNKS:
            for (label, engine, lead, _offset), rng in zip(self.ENGINES, self.rngs):
                def call(engine=engine, lead=lead, n=n, rng=rng):
                    return getattr(gsteer.verify, engine)(*lead, n, rng)

                def check(violations, label=label, n=n):
                    return [f"{label}: {violations} violations in {n}"] if violations else []

                ops.append(Op(label, len(ops), call, check, size=n))
        return ops


WORKLOADS = {w.name: w for w in (CliFiles, MonteCarlo, PaperCurves, Properties)}
