"""Seeded inputs, timed cases and independent output checks of each workload.

A workload turns a seed into rounds of cases. A case is one question a user
asks of formctl, answered end to end; ``run`` is the part that is timed and
``check`` compares its output with an oracle that does not go through the
code being measured. Inputs are plain data (edge lists, numpy arrays, files)
so every case builds its own ``Digraph`` and ``Configuration`` and no cached
property carries over from one case to the next.

Sizes are fixed by a case's position in its round and the seed draws only
the graph structure and the coordinates, so runs with different seeds do the
same amount of work of the same kind.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from formctl import cli, configspace, digraph, dynamics, errors, larc

RANK_RTOL = 1e-9          # the package's rank rule: s_k > RANK_RTOL * s_max
STEER_TOL = 1e-6          # target residual of the steering cases


@dataclass
class Case:
    label: str                # the kind of case, for the per-kind counts
    data: dict
    expected: object = None   # oracle result, filled in lazily by ``check``


class Workload:
    """Rounds of cases; ``run`` is timed, ``check`` is not."""

    pool_rounds = 1           # distinct rounds generated; the run cycles through them
    trace_rounds_per_s = 0.0  # rounds in the fixed case list of a traced run

    def __init__(self, tiny: bool = False):
        self.tiny = tiny

    def trace_rounds(self, seconds: float) -> int:
        return 1 if self.tiny else max(1, int(seconds * self.trace_rounds_per_s))

    def rounds(self) -> int:
        return 1 if self.tiny else self.pool_rounds

    def traced_call(self, case: Case):
        """What a traced run times under the tracer."""
        return self.run(case)

    def warm_up(self, pool) -> None:
        case = pool[0][0]
        self.check(case, self.run(case))


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng((seed,) + stream)


# -- independent oracles ---------------------------------------------------

def bfs_reach(num_vertices: int, edges) -> set[tuple[int, int]]:
    """Pairs (i, j), i != j, joined by a nonempty path: breadth-first search."""
    out: list[list[int]] = [[] for _ in range(num_vertices + 1)]
    for i, j in edges:
        out[i].append(j)
    pairs = set()
    for s in range(1, num_vertices + 1):
        seen = set()
        frontier = list(out[s])
        while frontier:
            nxt = []
            for v in frontier:
                if v not in seen:
                    seen.add(v)
                    nxt.extend(out[v])
            frontier = nxt
        pairs.update((s, t) for t in seen if t != s)
    return pairs


def pair_codes(num_vertices: int, pairs) -> np.ndarray:
    """Sorted codes i * (N + 1) + j of vertex pairs."""
    return np.sort(np.fromiter((i * (num_vertices + 1) + j for i, j in pairs), dtype=np.int64))


def svd_rank(mat: np.ndarray) -> int:
    if min(mat.shape) == 0:
        return 0
    s = np.linalg.svd(mat, compute_uv=False)
    return int(np.count_nonzero(s > RANK_RTOL * s[0])) if s[0] > 0 else 0


def larc_dimension(agents: np.ndarray, reach: set[tuple[int, int]]) -> int:
    """Span dimension of the fields x_j - x_i (in agent i's slots) over reach."""
    targets: dict[int, list[int]] = {}
    for i, j in reach:
        targets.setdefault(i, []).append(j)
    return sum(svd_rank((agents[[j - 1 for j in js]] - agents[i - 1]).T)
               for i, js in targets.items())


# -- graph generators ------------------------------------------------------

def sink_family(rng: np.random.Generator, N: int, n: int, chords: float):
    """Weakly connected digraph whose maximal components all exceed n+1 vertices.

    One to three sink components (cycles plus about ``chords`` extra edges
    per vertex) are fed by small strongly connected groups of one to three
    vertices. Each group sends edges only to groups made before it, so it
    is not maximal and reaches a sink; the first group feeds every sink so
    the graph is weakly connected. Vertex labels are shuffled. Returns the
    edges, the components and the sinks, as vertex sets.
    """
    min_sink = n + 2
    m = int(rng.integers(1, min(3, N // (2 * min_sink)) + 1)) if N >= 2 * min_sink + 1 else 1
    spare = N - m * min_sink - (1 if m > 1 else 0)
    sink_total = m * min_sink + int(rng.integers(0, spare // 2 + 1))
    sizes = [min_sink + int(x) for x in rng.multinomial(sink_total - m * min_sink, [1 / m] * m)]
    rest = N - sink_total
    groups = []
    while rest:
        size = min(rest, int(rng.integers(1, 4)))
        groups.append(size)
        rest -= size
    label = rng.permutation(N) + 1
    comps, start = [], 0
    for size in sizes + groups:
        comps.append([int(v) for v in label[start:start + size]])
        start += size
    edges = set()
    for comp in comps:
        if len(comp) > 1:
            edges.update(zip(comp, comp[1:] + comp[:1]))
    for comp in comps[:m]:
        for _ in range(int(chords * len(comp))):
            a, b = rng.choice(comp, size=2, replace=False)
            edges.add((int(a), int(b)))
    for k in range(m, len(comps)):
        heads = range(m) if k == m else rng.choice(k, size=int(rng.integers(1, 3)), replace=False)
        for h in heads:
            edges.add((int(rng.choice(comps[k])), int(rng.choice(comps[h]))))
    return sorted(edges), [frozenset(c) for c in comps], [frozenset(c) for c in comps[:m]]


def connected_digraph(rng: np.random.Generator, N: int, extra: float = 0.3):
    """Oriented random spanning tree plus each remaining pair with prob ``extra``."""
    order = rng.permutation(N) + 1
    edges = set()
    for k in range(1, N):
        a, b = int(order[rng.integers(k)]), int(order[k])
        edges.add((a, b) if rng.random() < 0.5 else (b, a))
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            if i != j and rng.random() < extra:
                edges.add((i, j))
    return sorted(edges)


def complete_edges(N: int):
    return [(i, j) for i in range(1, N + 1) for j in range(1, N + 1) if i != j]


def control_matrix(N: int, u: dict) -> np.ndarray:
    m = np.zeros((N, N))
    for (i, j), w in u.items():
        m[i - 1, j - 1] += w
        m[i - 1, i - 1] -= w
    return m


def integrate(agents: np.ndarray, controls, h: float) -> np.ndarray:
    """Apply each segment's exact flow with the lifted (nN x nN) exponential."""
    N, n = agents.shape
    x = agents.T.reshape(-1)
    for u in controls:
        x = expm(h * np.kron(np.eye(n), control_matrix(N, u))) @ x
    return x.reshape(n, N).T


# -- certify ---------------------------------------------------------------

class Certify(Workload):
    """Full certificate on sink-component digraphs; a quarter are negative."""

    pool_rounds = 24
    trace_rounds_per_s = 1.0

    def build(self, seed: int):
        small = range(5, 9) if self.tiny else range(5, 21)      # n = 2
        large = 24 if self.tiny else 200                         # n = 3, one per round
        pool = []
        for r in range(self.rounds()):
            cases = []
            specs = [(N, 2, 0.5) for N in small]
            specs.append((large, 3, 0.2))
            for k, (N, n, chords) in enumerate(specs):
                rng = _rng(seed, 1, r, k)
                edges, comps, sinks = sink_family(rng, N, n, chords)
                agents = rng.uniform(-1.0, 1.0, size=(N, n))
                negative = (k % 4 == 3) if N != large else (r % 4 == 3)
                if negative:
                    collapsed = sorted(sinks[int(rng.integers(len(sinks)))])
                    agents[[v - 1 for v in collapsed]] = agents[collapsed[0] - 1]
                label = ("large" if N == large else "small") + ("-negative" if negative else "")
                cases.append(Case(label, dict(N=N, n=n, edges=edges, comps=comps,
                                                  sinks=sinks, agents=agents,
                                                  negative=negative)))
            pool.append(cases)
        return pool

    def run(self, case: Case):
        d = case.data
        g = digraph.Digraph(d["N"], d["edges"])
        p = configspace.Configuration.from_agents(d["agents"])
        scd = digraph.coarse_scd(g)
        verdict = digraph.structural_verdict(g, d["n"])
        closed = digraph.transitive_closure(g)
        member = configspace.in_controllable_set(p, scd)
        report = larc.lie_algebra_at(p, g)
        try:
            witness = larc.construct_witness_basis(p, g)
        except errors.NotInControllableSet as exc:
            witness = exc
        return scd, verdict, closed, member, report, witness

    def check(self, case: Case, out) -> str | None:
        d = case.data
        N, n, agents = d["N"], d["n"], d["agents"]
        scd, verdict, closed, member, report, witness = out
        if set(map(frozenset, scd.components)) != set(d["comps"]):
            return "components differ from the construction"
        if {frozenset(scd.components[w - 1]) for w in scd.maximal_set} != set(d["sinks"]):
            return "maximal components differ from the sinks"
        if verdict.kind is not digraph.StructuralKind.GENERICALLY_CONTROLLABLE:
            return f"verdict {verdict.kind.value}"
        if case.expected is None:
            # kept as sorted pair codes: the reachable sets of a whole pool
            # would otherwise dominate the benchmark's own memory
            reach = bfs_reach(N, d["edges"])
            case.expected = (pair_codes(N, reach), larc_dimension(agents, reach))
        reach, dim = case.expected
        if not np.array_equal(pair_codes(N, closed.edges), reach) \
                or report.closure_edge_count != reach.size:
            return "closure differs from breadth-first reachability"
        if report.dimension != dim:
            return f"LARC dimension {report.dimension}, SVD oracle {dim}"
        if d["negative"]:
            if member.passes or report.passes or dim == n * N:
                return "collapsed component passed"
            if not isinstance(witness, errors.NotInControllableSet):
                return "witness not refused on a collapsed component"
            return None
        if not member.passes or not report.passes or dim != n * N:
            return "generic configuration failed the rank condition"
        if isinstance(witness, Exception):
            return f"witness refused: {type(witness).__name__}"
        if len(witness.vectors) != n * N:
            return f"witness has {len(witness.vectors)} vectors, expected {n * N}"
        # each field lives in its source agent's slots, so the rank is the
        # sum of the per-agent ranks once every field is checked entry by entry
        if not np.isin(pair_codes(N, [v.edge for v in witness.vectors]), reach).all():
            return "a witness edge is not in the closure"
        blocks: dict[int, list[np.ndarray]] = {}
        for v in witness.vectors:
            a, b = v.edge
            col = np.zeros(n * N)
            col[np.arange(n) * N + (a - 1)] = agents[b - 1] - agents[a - 1]
            if not np.array_equal(col, np.asarray(v.values)):
                return f"witness field of {a}->{b} is wrong"
            blocks.setdefault(a, []).append(agents[b - 1] - agents[a - 1])
        if sum(svd_rank(np.array(cols).T) for cols in blocks.values()) != n * N:
            return "witness rank below nN"
        return None


# -- steer -----------------------------------------------------------------

class Steer(Workload):
    """Two-point steering: K5 random pairs, and K8 targets reached by known controls."""

    k5_per_round = 4
    pool_rounds = 20
    trace_rounds_per_s = 0.1

    def build(self, seed: int):
        big = (4, 3) if self.tiny else (8, 8)
        pool = []
        for r in range(self.rounds()):
            cases = []
            for k in range(1 if self.tiny else self.k5_per_round):
                rng = _rng(seed, 3, r, k)
                cases.append(Case("K5-random", dict(N=5, S=6, T=1.0, edges=complete_edges(5),
                                                    p0=rng.standard_normal((5, 2)),
                                                    p1=rng.standard_normal((5, 2)))))
            rng = _rng(seed, 3, r, self.k5_per_round)
            cases.append(self._known_controls(rng, *big))
            pool.append(cases)
        return pool

    @staticmethod
    def _known_controls(rng, N, S, T=1.0, scale=0.4):
        edges = complete_edges(N)
        p0 = rng.standard_normal((N, 2))
        controls = [dict(zip(edges, rng.uniform(-scale, scale, size=len(edges))))
                    for _ in range(S)]
        return Case(f"K{N}-known", dict(N=N, S=S, T=T, edges=edges, p0=p0,
                                        p1=integrate(p0, controls, T / S)))

    def run(self, case: Case):
        d = case.data
        g = digraph.Digraph(d["N"], d["edges"])
        p0 = configspace.Configuration.from_agents(d["p0"])
        p1 = configspace.Configuration.from_agents(d["p1"])
        return dynamics.steer(g, p0, p1, d["S"], d["T"],
                              dynamics.SteerOptions(tolerance=STEER_TOL))

    def check(self, case: Case, out) -> str | None:
        d = case.data
        if out.residual > STEER_TOL:
            return f"not converged: residual {out.residual:.3e}"
        grid = out.controls.grid
        if len(out.controls.values) != d["S"] or abs(grid[-1] - d["T"]) > 1e-12:
            return "control schedule does not cover the horizon"
        final = integrate(d["p0"], out.controls.values, d["T"] / d["S"])
        miss = float(np.linalg.norm((final - d["p1"]).T.reshape(-1)))
        if miss > STEER_TOL + 1e-9 or abs(miss - out.residual) > 1e-9:
            return f"re-integrated miss {miss:.3e}, reported {out.residual:.3e}"
        return None

    def warm_up(self, pool):
        case = self._known_controls(_rng(0, 3, 999), 5, 3, scale=0.1)
        self.check(case, self.run(case))


# -- cli -------------------------------------------------------------------

def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _graph_text(N: int, edges) -> str:
    return f"N {N}\n" + "".join(f"{i} {j}\n" for i, j in edges)


def _config_json(agents: np.ndarray) -> str:
    N, n = agents.shape
    return json.dumps({"n": n, "N": N, "agents": agents.tolist()})


def _controls_csv(controls, T: float) -> str:
    h = T / len(controls)
    lines = ["t_start,t_end,i,j,u"]
    for s, u in enumerate(controls):
        lines.extend(f"{s * h!r},{(s + 1) * h!r},{i},{j},{float(w)!r}"
                     for (i, j), w in sorted(u.items()))
    return "\n".join(lines) + "\n"


class Cli(Workload):
    """One ``python -m formctl.cli`` subprocess per case, on generated files."""

    pool_rounds = 3
    trace_rounds_per_s = 0.06

    def __init__(self, root: str, workdir: str, tiny: bool = False):
        super().__init__(tiny)
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def build(self, seed: int):
        pool = []
        for r in range(self.rounds()):
            rng = _rng(seed, 4, r)
            f = lambda name: os.path.join(self.workdir, f"r{r}_{name}")  # noqa: E731
            edges, _, _ = sink_family(rng, 14, 2, 0.5)
            sink = _write(f("sink.txt"), _graph_text(14, edges))
            sink_cfg = _write(f("sink.json"), _config_json(rng.uniform(-1, 1, (14, 2))))
            small = _write(f("small.txt"), _graph_text(8, connected_digraph(rng, 8)))
            k5 = _write(f("k5.txt"), _graph_text(5, complete_edges(5)))
            k4 = _write(f("k4.txt"), _graph_text(4, complete_edges(4)))
            p0 = rng.standard_normal((5, 2))
            cfg = _write(f("p0.json"), _config_json(p0))
            u = [dict(zip(complete_edges(5), rng.uniform(-0.4, 0.4, 20))) for _ in range(6)]
            controls = _write(f("u.csv"), _controls_csv(u, 1.0))
            q0 = rng.standard_normal((4, 2))
            q1 = integrate(q0, [dict(zip(complete_edges(4), rng.uniform(-0.3, 0.3, 12)))
                                for _ in range(3)], 1.0 / 3)
            a = _write(f("a.json"), _config_json(q0))
            b = _write(f("b.json"), _config_json(q1))
            sched, wps = self._tracking_files(rng, f)
            commands = [
                ["analyze", "--graph", sink, "--n", "2", "--format", "json"],
                ["closure", "--graph", small, "--format", "json"],
                ["larc", "--graph", k5, "--config", cfg, "--format", "json"],
                ["witness", "--graph", sink, "--config", sink_cfg, "--format", "csv"],
                ["chart", "--config", cfg, "--format", "json"],
                ["simulate", "--graph", k5, "--config", cfg, "--controls", controls,
                 "--T", "1.0", "--dt", "0.05"],
                ["steer", "--graph", k4, "--config", a, "--target", b,
                 "--segments", "3", "--T", "1.0", "--steer-tol", "1e-6"],
                ["track", "--schedule", sched, "--T", "0.9", "--waypoints", wps,
                 "--epsilon", "0.05", "--segments", "3"],
            ]
            pool.append([Case(argv[0], dict(argv=argv)) for argv in commands])
        return pool

    @staticmethod
    def _tracking_files(rng, f):
        """The switching schedule of acceptance criterion 11, seeded waypoints."""
        full = complete_edges(5)
        pruned = [e for e in full if e != (1, 2)]
        _write(f("track_a.txt"), _graph_text(5, full))
        _write(f("track_b.txt"), _graph_text(5, pruned))
        prefix = os.path.basename(f(""))
        sched = _write(f("sched.json"), json.dumps(
            [{"t": 0.0, "graph": prefix + "track_a.txt"},
             {"t": 0.4, "graph": prefix + "track_b.txt"}]))
        agents = rng.standard_normal((5, 2))
        drift = 0.08 * rng.standard_normal((5, 2))
        points = []
        for k in range(10):
            points.append({"t": round(0.1 * k, 12),
                           "config": json.loads(_config_json(agents))})
            agents = agents + drift + 0.02 * rng.standard_normal((5, 2))
        return sched, _write(f("wps.json"), json.dumps(points))

    def run(self, case: Case):
        out_path = os.path.join(self.workdir, "stdout.txt")
        err_path = os.path.join(self.workdir, "stderr.txt")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "formctl.cli", *case.data["argv"]],
                                    stdout=out, stderr=err, env=self.env, cwd=self.workdir)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8") as fh:
            stderr = fh.read()
        return proc.returncode, stdout, stderr, usage.ru_maxrss / 1024.0

    @staticmethod
    def in_process(argv) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue()

    def traced_call(self, case: Case):
        code, stdout = self.in_process(case.data["argv"])
        return code, stdout, "", 0.0

    def check(self, case: Case, out) -> str | None:
        code, stdout, stderr, _ = out
        if code != 0:
            return f"exit code {code}: {stderr.strip()[:200]}"
        if case.expected is None:
            case.expected = self.in_process(case.data["argv"])
        if case.expected != (0, stdout):
            return "subprocess output differs from the in-process result"
        return None


def import_ms(root: str, repeats: int) -> float:
    """Median time a fresh interpreter takes to import ``formctl.cli``."""
    code = ("import time; t = time.perf_counter(); import formctl.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    times = []
    for _ in range(repeats):
        res = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        times.append(1000.0 * float(res.stdout))
    return float(np.median(times))


def make(name: str, root: str, workdir: str, tiny: bool = False) -> Workload:
    if name == "cli":
        return Cli(root, workdir, tiny)
    return {"certify": Certify, "steer": Steer}[name](tiny)

